"""Composition engine: derivations, rule resolution, provenance, explanations."""

from __future__ import annotations

import copy
import io
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from motionsem.compose import (
    Derivation,
    MotionComplex,
    compose,
    compute_features,
    explain,
    lref_location,
)
from motionsem.errors import (
    AmbiguousRuleBaseError,
    IllFormedEntryError,
    InfelicitousError,
    NotACoLVerbError,
    UnknownLemmaError,
)
from motionsem.lexicon import Lexicon, PrepEntry, VerbEntry, default_lexicon
from motionsem.rules import (
    Conclusion,
    RuleBase,
    _load_rulebase,
    applicable_rules,
    default_rulebase,
    dump_rulebase,
    load_rulebase,
)
from motionsem.trace import Provenance, render_records, validate_trace
from motionsem.zones import LrefRole, Phase, Zone
from shapes import (
    MEMO_BASES, PREP_ENTRIES, VERB_SHAPES, hand_built, prep_projection, shape_lexicons,
    verb_projection,
)

FR = default_lexicon("fr")
EN = default_lexicon("en")
RULES = default_rulebase()


def fr_complex(verb, prep, ground="jardin", mobile="mobile") -> MotionComplex:
    return MotionComplex(verb, prep, ground, mobile, "fr")


def en_complex(verb, prep, ground="garden", mobile="mobile") -> MotionComplex:
    return MotionComplex(verb, prep, ground, mobile, "en")


def tuples(derivation: Derivation):
    return set(derivation.trace.tuples())


# -- the worked example and its neighbours ----------------------------------


def test_exit_into_garden_creates_final_location():
    d = compose(fr_complex("sortir", "dans"), FR, RULES)
    assert tuples(d) == {
        ("jardin", "post", "inside", "interaction"),
        ("lref#sortir", "pre", "inside", "verb"),
        ("lref#sortir", "post", "proximal", "verb"),
    }
    assert d.trace.ground == "jardin"
    assert d.trace.lref == "lref#sortir"
    assert d.fired.id == "D2i"


def test_english_counterpart_is_prep_sourced():
    d = compose(en_complex("go-out", "into"), EN, RULES)
    assert tuples(d) == {
        ("garden", "post", "inside", "prep"),
        ("lref#go-out", "pre", "inside", "verb"),
        ("lref#go-out", "post", "proximal", "verb"),
    }
    assert not any(
        t[3] == "interaction" for t in tuples(d) if t[0] == d.trace.ground
    )


def test_enter_identifies_ground_with_lref():
    d = compose(fr_complex("entrer", "dans"), FR, RULES)
    assert d.trace.ground == d.trace.lref == "jardin"
    assert tuples(d) == {
        ("jardin", "pre", "proximal", "verb"),
        ("jardin", "post", "inside", "verb"),
    }
    assert d.fired.id == "D1"


def test_exit_from_house_identifies_on_matching_role():
    d = compose(fr_complex("sortir", "de", ground="maison"), FR, RULES)
    assert d.trace.ground == d.trace.lref == "maison"
    assert tuples(d) == {
        ("maison", "pre", "inside", "verb"),
        ("maison", "post", "proximal", "verb"),
    }
    assert d.fired.id == "D3i"


def test_medial_identification_keeps_path_interior():
    d = compose(fr_complex("passer", "par", ground="ville"), FR, RULES)
    assert d.fired.id == "D3m"
    assert tuples(d) == {
        ("ville", "pre", "contact", "verb"),
        ("ville", "during", "inside", "verb"),
        ("ville", "post", "contact", "verb"),
    }


def test_mismatched_role_binds_at_preps_own_phase():
    d = compose(fr_complex("sortir", "par", ground="porte"), FR, RULES)
    assert d.fired.id == "D4m"
    assert ("porte", "during", "inside", "prep") in tuples(d)


def test_unattained_final_prep_weakens_to_proximal():
    d = compose(fr_complex("entrer", "vers"), FR, RULES)
    assert d.fired.id == "D5"
    assert ("jardin", "post", "proximal", "prep") in tuples(d)
    # the identification reading was vetoed by the strict continuity rule
    forbidden = {x.rule_id: x for x in d.defeated}
    assert forbidden["D3f"].defeated_by == "S1"


def test_attained_final_prep_with_clash_falls_back_to_bind():
    d = compose(fr_complex("arriver", "jusqu'à", ground="maison"), FR, RULES)
    assert d.fired.id == "D4f"
    assert tuples(d) == {
        ("maison", "post", "contact", "prep"),
        ("lref#arriver", "pre", "distal", "verb"),
        ("lref#arriver", "post", "inside", "verb"),
    }


def test_compatible_final_prep_identifies_even_when_unattained():
    d = compose(fr_complex("s'approcher", "vers", ground="mur"), FR, RULES)
    assert d.fired.id == "D3f"
    assert d.trace.ground == d.trace.lref == "mur"


# -- feature extraction ------------------------------------------------------


@pytest.mark.parametrize("zero", [0, 0.0], ids=["int", "float"])
def test_an_attained_that_equals_false_weakens_like_false(zero):
    # a hand-built 0 is held as False, so the public helpers agree with
    # compose() on it
    verb = FR.verbs["entrer"]
    odd = PrepEntry("p", "dir", Zone.INSIDE, LrefRole.FINAL, zero)
    plain = odd._replace(attained=False)
    assert odd.attained is False and odd == plain
    assert odd.effective_zone is Zone.PROXIMAL
    assert compute_features(verb, odd) == compute_features(verb, plain)
    assert not compute_features(verb, odd).zone_compatible
    post_proximal = {("g", Phase.POST, Zone.PROXIMAL)}
    assert prep_projection(odd, "g") == prep_projection(plain, "g") == post_proximal
    lexicon = Lexicon("fr", {"entrer": verb}, {"p": odd})
    d = compose(fr_complex("entrer", "p", ground="g"), lexicon, RuleBase("v", RULES.rules))
    assert d.features == compute_features(verb, odd)
    assert ("g", "post", "proximal", "prep") in tuples(d)


def test_zone_compatibility_flag():
    dans = FR.preps["dans"]
    assert compute_features(FR.verbs["entrer"], dans).zone_compatible
    assert not compute_features(FR.verbs["sortir"], dans).zone_compatible
    # merged constraints may clash on continuity, not just on a phase
    par = FR.preps["par"]
    assert not compute_features(FR.verbs["sortir"], par).zone_compatible
    assert compute_features(FR.verbs["passer"], par).zone_compatible


def test_features_record_prep_shape():
    feats = compute_features(EN.verbs["go-out"], EN.preps["into"])
    assert feats.lref_role is LrefRole.INITIAL
    assert feats.prep_kind == "dir"
    assert feats.prep_role is LrefRole.FINAL
    assert feats.attained is True
    pos = compute_features(EN.verbs["go-out"], EN.preps["in"])
    assert pos.prep_role is None and pos.attained is None


# -- applicable_rules ------------------------------------------------------


def test_applicable_rules_for_positional_mismatch():
    feats = compute_features(FR.verbs["sortir"], FR.preps["dans"])
    hits = applicable_rules(feats, RULES)
    assert [r.id for r in hits] == ["D2i"]


def test_applicable_rules_for_positional_identification():
    feats = compute_features(FR.verbs["entrer"], FR.preps["dans"])
    hits = applicable_rules(feats, RULES)
    assert [r.id for r in hits] == ["D1"]


def test_applicable_rules_directional_stack():
    feats = compute_features(FR.verbs["entrer"], FR.preps["vers"])
    hits = applicable_rules(feats, RULES)
    assert [r.id for r in hits] == ["S1", "D3f", "D5", "D4f"]


def test_compose_raises_on_tied_rules():
    base = load_rulebase(
        io.StringIO(
            "R\tA\tdefeasible\t5\tprepkind=pos\tbind(post)\n"
            "R\tB\tdefeasible\t5\tprepkind=pos\tbind(pre)\n"
        )
    )
    for _ in range(3):  # the failed verdict is memoized and raised on every repeat
        with pytest.raises(AmbiguousRuleBaseError) as info:
            compose(fr_complex("entrer", "dans"), FR, base)
        assert str(info.value) == (
            "rules A, B tie on strength and priority for entrer + dans"
        )


def test_tie_below_the_fired_rule_is_never_reached():
    base = load_rulebase(
        io.StringIO(
            "R\tA\tdefeasible\t5\tprepkind=pos\tbind(post)\n"
            "R\tB\tdefeasible\t5\tprepkind=pos\tbind(pre)\n"
            "R\tC\tdefeasible\t9\tprepkind=pos\tbind(post)\n"
        )
    )
    for _ in range(2):
        d = compose(fr_complex("entrer", "dans"), FR, base)
        assert d.fired.id == "C"
        assert [x.rule_id for x in d.defeated] == ["A", "B"]


# -- error paths --------------------------------------------------------------


def test_unknown_lemmas():
    with pytest.raises(UnknownLemmaError):
        compose(fr_complex("zzz", "dans"), FR, RULES)
    with pytest.raises(UnknownLemmaError):
        compose(fr_complex("sortir", "zzz"), FR, RULES)


def test_non_col_verbs_do_not_compose():
    for lemma in ("voyager", "courir", "s'asseoir", "se baisser"):
        with pytest.raises(NotACoLVerbError):
            compose(fr_complex(lemma, "dans"), FR, RULES)


def test_infelicitous_when_every_conclusion_fails():
    # identification is the only rule, and it clashes for this pair
    base = load_rulebase(
        io.StringIO("R\tonly\tdefeasible\t1\tprepkind=dir,preprole=final\tidentify\n")
    )
    for _ in range(3):  # the failed verdict is memoized and raised on every repeat
        with pytest.raises(InfelicitousError) as info:
            compose(fr_complex("arriver", "jusqu'à", ground="maison"), FR, base)
        assert str(info.value) == (
            "no rule yields a well-formed trace for arriver + jusqu'à + maison"
        )


@pytest.mark.parametrize("name", ["tie-and-bind", "identify-only"])
def test_a_failed_verdict_is_worded_from_each_calls_own_complex(name):
    # one failing shape under two grounds, then under two lemmas: its one memo
    # entry raises on every call, naming that call's complex
    base = RuleBase(MEMO_BASES[name].version, MEMO_BASES[name].rules)
    verb, prep = VerbEntry("a", "CoL", *VERB_SHAPES[0]), PrepEntry("p", "pos", Zone.INSIDE)
    lexicon = Lexicon(
        "fr", {"a": verb, "b": verb._replace(lemma="b")}, {"p": prep, "q": prep._replace(lemma="q")}
    )
    for lemmas, ground in ((("a", "p"), "g"), (("a", "p"), "h"), (("b", "q"), "h")):
        expected = (
            f"rules A, B tie on strength and priority for {' + '.join(lemmas)}"
            if name == "tie-and-bind"
            else f"no rule yields a well-formed trace for {' + '.join(lemmas)} + {ground}"
        )
        for _ in range(3):
            with pytest.raises((AmbiguousRuleBaseError, InfelicitousError)) as info:
                compose(MotionComplex(*lemmas, ground, "m", "fr"), lexicon, base)
            assert str(info.value) == expected
    assert len(base._derivations) == len(base._verdicts) == 1


def test_infelicitous_when_no_rule_applies():
    base = load_rulebase(io.StringIO("R\tA\tdefeasible\t1\tprepkind=dir\tbind(post)\n"))
    with pytest.raises(InfelicitousError):
        compose(fr_complex("sortir", "dans"), FR, base)


# Fields of a CoL entry without its role or a zone; built inside the test,
# since the constructor refuses them.
MISSING_ZONES = {
    "bare": (),
    "no-role": (None, Zone.INSIDE, Zone.DISTAL),
    "no-start": (LrefRole.INITIAL, None, Zone.DISTAL),
    "no-end": (LrefRole.INITIAL, Zone.INSIDE, None),
}


@pytest.mark.parametrize("fields", MISSING_ZONES.values(), ids=list(MISSING_ZONES))
def test_a_col_entry_without_its_role_or_zones_is_ill_formed(fields):
    whole = VerbEntry("v", "CoL", LrefRole.INITIAL, Zone.INSIDE, Zone.DISTAL)
    for build in (
        lambda: VerbEntry("v", "CoL", *fields),
        lambda: VerbEntry._make(("v", "CoL", *fields) + (None,) * (4 - len(fields))),
        lambda: whole._replace(**dict(zip(whole._fields[2:5], fields or (None,) * 3))),
    ):
        with pytest.raises(IllFormedEntryError) as info:
            build()
        assert str(info.value) == "CoL entry 'v' lacks zone constraints"


def test_a_directional_prep_without_a_role_is_ill_formed():
    for build in (
        lambda: PrepEntry("p", "dir", Zone.INSIDE),
        lambda: FR.preps["vers"]._replace(lemma="p", role=None, attained=None),
    ):
        with pytest.raises(IllFormedEntryError) as info:
            build()
        assert str(info.value) == "directional prep 'p' lacks a role"


def test_a_bind_conclusion_without_a_phase_is_ill_formed():
    # refused when built, so no rule base holds one for compose() to meet
    for build in (
        lambda: Conclusion("bind"),
        lambda: Conclusion("bind", Phase.POST, Zone.INSIDE)._replace(phase=None),
        lambda: Conclusion._make(("bind", None, None, Provenance.PREP)),
    ):
        with pytest.raises(IllFormedEntryError) as info:
            build()
        assert str(info.value) == "'bind' has phase None, equal to no member"


COMPLEX_FIELDS = dict(
    verb_lemma="sortir", prep_lemma="dans", ground="g", mobile="m", language="fr"
)


def complexes_built_four_ways(**changes):
    """Thunks building one complex positionally, by keyword, by _make, by _replace."""
    fields = {**COMPLEX_FIELDS, **changes}
    yield lambda: MotionComplex(*fields.values())
    yield lambda: MotionComplex(**fields)
    yield lambda: MotionComplex._make(fields.values())
    yield lambda: MotionComplex(**COMPLEX_FIELDS)._replace(**changes)


def test_the_reference_location_name_is_refused_as_a_ground():
    # lref#<verb> names the verb's reference location, so no ground may take
    # it: whether the two are one place is the rule base's decision alone
    message = "motion complex ground 'lref#sortir' is reserved for the reference location"
    for build in complexes_built_four_ways(ground="lref#sortir"):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
    # an empty field is named first
    with pytest.raises(ValueError, match="field verb_lemma must be nonempty"):
        MotionComplex("", "dans", "lref#", "m", "fr")
    # another verb's reference location is an ordinary name
    d = compose(fr_complex("sortir", "dans", ground="lref#entrer"), FR, RULES)
    assert d.fired.id == "D2i" and d.trace.lref == "lref#sortir"
    assert d.trace.ground == "lref#entrer"
    assert ("lref#entrer", "post", "inside", "interaction") in tuples(d)


@pytest.mark.parametrize("field", MotionComplex._fields)
def test_empty_complex_fields_rejected(field):
    later = MotionComplex._fields[MotionComplex._fields.index(field) + 1 :]
    message = f"motion complex field {field} must be nonempty"
    for empty in ("", None):
        # the first empty field is named, also when a later one is empty too
        cases = [{field: empty}] + [{field: empty, other: ""} for other in later]
        for changes in cases:
            for build in complexes_built_four_ways(**changes):
                with pytest.raises(ValueError) as info:
                    build()
                assert str(info.value) == message
    for build in complexes_built_four_ways():
        assert build() == tuple(COMPLEX_FIELDS.values())


def test_language_mismatch_rejected():
    from motionsem.errors import UnknownLanguageError

    with pytest.raises(UnknownLanguageError):
        compose(en_complex("go-out", "into"), FR, RULES)


def test_custom_identify_adds_prep_phase_when_consistent():
    # a forced identification where the prep contributes a phase the verb
    # does not define keeps the prep's provenance on that assignment
    base = load_rulebase(
        io.StringIO("R\tonly\tdefeasible\t1\tprepkind=dir\tidentify\n")
    )
    d = compose(fr_complex("s'enfoncer", "par", ground="sable"), FR, base)
    assert tuples(d) == {
        ("sable", "pre", "contact", "verb"),
        ("sable", "during", "inside", "prep"),
        ("sable", "post", "inside", "verb"),
    }


# -- engine invariants ---------------------------------------------------------


def all_col_prep_pairs(lexicon):
    for verb in lexicon.verbs.values():
        if not verb.is_col:
            continue
        for prep in lexicon.preps.values():
            yield verb, prep


def sweep(lexicon, language):
    outcomes = {}
    for verb, prep in all_col_prep_pairs(lexicon):
        complex_ = MotionComplex(verb.lemma, prep.lemma, "g", "m", language)
        try:
            d = compose(complex_, lexicon, RULES)
            outcomes[(verb.lemma, prep.lemma)] = ("ok", d.fired.id, d.trace.tuples())
        except InfelicitousError:
            outcomes[(verb.lemma, prep.lemma)] = ("infelicitous",)
    return outcomes


def test_every_composition_is_valid_or_infelicitous():
    for lexicon, language in ((FR, "fr"), (EN, "en")):
        for verb, prep in all_col_prep_pairs(lexicon):
            complex_ = MotionComplex(verb.lemma, prep.lemma, "g", "m", language)
            try:
                d = compose(complex_, lexicon, RULES)
            except InfelicitousError:
                continue
            assert validate_trace(d.trace) == [], (verb.lemma, prep.lemma)


def test_composition_is_deterministic():
    first = sweep(FR, "fr")
    second = sweep(FR, "fr")
    assert first == second


def independent_verb_facts(verb, location):
    facts = {
        (location, "pre", verb.start_zone.label),
        (location, "post", verb.end_zone.label),
    }
    if verb.lref_role is LrefRole.MEDIAL:
        facts.add((location, "during", "inside"))
    return facts


def independent_prep_facts(prep, location):
    if prep.kind == "pos":
        return set()
    phase = {"initial": "pre", "medial": "during", "final": "post"}[prep.role.label]
    zone = "proximal" if prep.attained is False else prep.zone.label
    return {(location, phase, zone)}


def test_interaction_tags_are_sound_across_the_seed():
    # an assignment is interaction-tagged exactly when neither entry
    # alone supports it; recomputed here from raw entry fields
    for lexicon, language in ((FR, "fr"), (EN, "en")):
        for verb, prep in all_col_prep_pairs(lexicon):
            complex_ = MotionComplex(verb.lemma, prep.lemma, "g", "m", language)
            try:
                d = compose(complex_, lexicon, RULES)
            except InfelicitousError:
                continue
            verb_facts = independent_verb_facts(verb, d.trace.lref)
            prep_facts = independent_prep_facts(prep, d.trace.ground)
            for loc, phase, zone, prov in d.trace.tuples():
                emergent = (loc, phase, zone) not in verb_facts | prep_facts
                assert (prov == "interaction") == emergent, (
                    verb.lemma,
                    prep.lemma,
                    (loc, phase, zone, prov),
                )


def test_projection_helpers_match_entries():
    verb = FR.verbs["passer"]
    assert verb_projection(verb, "ville") == {
        ("ville", Phase.PRE, Zone.CONTACT),
        ("ville", Phase.DURING, Zone.INSIDE),
        ("ville", Phase.POST, Zone.CONTACT),
    }
    vers = FR.preps["vers"]
    (fact,) = prep_projection(vers, "g")
    assert fact[2] is Zone.PROXIMAL
    assert prep_projection(FR.preps["dans"], "g") == set()


def matched_pairs():
    # verbs with the same zone classes across the two seed lexicons
    return [
        ("sortir", "go-out"),
        ("partir", "leave"),
        ("s'éloigner", "move-away"),
        ("décoller", "take-off"),
        ("entrer", "enter"),
        ("atterrir", "land"),
        ("arriver", "arrive"),
        ("s'approcher", "approach"),
        ("s'enfoncer", "sink-in"),
        ("passer", "pass"),
        ("traverser", "cross"),
    ]


def normalize(trace):
    renames = {}
    if trace.ground is not None:
        renames[trace.ground] = "GROUND"
    if trace.lref is not None:
        renames.setdefault(trace.lref, "LREF")
    zones = {(renames[l], p, z) for l, p, z, _ in trace.tuples()}
    identified = trace.ground == trace.lref
    return identified, zones


def test_cross_lingual_contrast_on_positional_vs_directional_final():
    # same ground, same structural outcome: the French positional reading
    # carries emergent information, the English directional one does not
    contrasted = 0
    for fr_lemma, en_lemma in matched_pairs():
        d_fr = compose(MotionComplex(fr_lemma, "dans", "g", "m", "fr"), FR, RULES)
        d_en = compose(MotionComplex(en_lemma, "into", "g", "m", "en"), EN, RULES)
        if normalize(d_fr.trace) != normalize(d_en.trace):
            continue
        identified, _ = normalize(d_fr.trace)
        if identified:
            continue  # identified readings are verb-sourced on both sides
        fr_ground = [t for t in d_fr.trace.tuples() if t[0] == d_fr.trace.ground]
        en_ground = [t for t in d_en.trace.tuples() if t[0] == d_en.trace.ground]
        assert any(t[3] == "interaction" for t in fr_ground), fr_lemma
        assert all(t[3] != "interaction" for t in en_ground), en_lemma
        contrasted += 1
    assert contrasted >= 3  # the contrast class is not vacuous


def test_cross_lingual_contrast_holds_on_every_shape():
    # the paper's contrast as a property: over every verb shape, every zone
    # z and attainment, a French positional z and an English
    # directional-final z that give the same unidentified zones tag the
    # French ground's fact interaction and no English one
    contrasted = 0
    for shape in VERB_SHAPES:
        verbs = {"v": VerbEntry("v", "CoL", *shape)}
        for zone in Zone:
            fr = Lexicon("fr", verbs, {"p": PrepEntry("p", "pos", zone)})
            d_fr = compose(MotionComplex("v", "p", "g", "m", "fr"), fr, RULES)
            for attained in (True, False):
                prep = PrepEntry("p", "dir", zone, role=LrefRole.FINAL, attained=attained)
                en = Lexicon("en", verbs, {"p": prep})
                d_en = compose(MotionComplex("v", "p", "g", "m", "en"), en, RULES)
                fr_rows, en_rows = d_fr.trace.tuples(), d_en.trace.tuples()
                if {t[:3] for t in fr_rows} != {t[:3] for t in en_rows}:
                    continue
                if d_fr.trace.ground == d_fr.trace.lref:
                    continue  # identified readings are verb-sourced on both sides
                assert any(t[3] == "interaction" for t in fr_rows if t[0] == "g")
                assert all(t[3] != "interaction" for t in en_rows if t[0] == "g")
                contrasted += 1
    assert contrasted == 41  # the contrast class is not vacuous


# -- defeasibility -------------------------------------------------------------


def test_strict_override_flips_the_default_conclusion():
    complex_ = fr_complex("sortir", "dans")
    default = compose(complex_, FR, RULES)
    assert ("jardin", "post", "inside", "interaction") in tuples(default)

    override = load_rulebase(
        io.StringIO(
            "R\tOVR\tstrict\t1\tprepkind=pos,zonecompat=no\tbind(pre) prov=interaction\n"
        )
    )
    base = RuleBase(RULES.version, RULES.rules + override.rules)
    flipped = compose(complex_, FR, base)
    assert flipped.fired.id == "OVR"
    assert ("jardin", "pre", "inside", "interaction") in tuples(flipped)
    assert ("jardin", "post", "inside", "interaction") not in tuples(flipped)
    # the defeasible default is recorded as defeated
    assert any(d.rule_id == "D2i" and d.defeated_by == "OVR" for d in flipped.defeated)


def test_defeat_reasons():
    d = compose(fr_complex("sortir", "de", ground="maison"), FR, RULES)
    reasons = {x.rule_id: x.reason for x in d.defeated}
    assert reasons["D4i"] == "guard subsumed"  # D3i's guard is strictly tighter
    d2 = compose(fr_complex("s'approcher", "vers", ground="mur"), FR, RULES)
    reasons2 = {x.rule_id: x.reason for x in d2.defeated}
    assert reasons2["D5"] == "lower priority"


def test_a_conclusion_of_an_unknown_kind_is_ill_formed():
    # refused when built: a Conclusion has the parser's three kinds alone
    for kind in ("merge", "Bind", None):
        for build in (
            lambda: Conclusion(kind),
            lambda: Conclusion("identify")._replace(kind=kind),
            lambda: Conclusion(kind, Phase.POST),
        ):
            with pytest.raises(IllFormedEntryError) as info:
                build()
            assert str(info.value) == f"unknown conclusion {kind!r}"


# -- explanations ---------------------------------------------------------------


def test_explain_marks_interaction_row():
    text = explain(compose(fr_complex("sortir", "dans"), FR, RULES))
    row = next(line for line in text.splitlines() if "jardin" in line and "post" in line and "Interaction" in line)
    assert row
    assert "jardin post inside interaction" in text  # records block


def test_explain_marks_preposition_row():
    text = explain(compose(en_complex("go-out", "into"), EN, RULES))
    assert any(
        "garden" in line and "Preposition" in line for line in text.splitlines()
    )
    assert "garden post inside prep" in text


def test_explain_states_identification():
    text = explain(compose(fr_complex("entrer", "dans"), FR, RULES))
    assert "identified with" in text


def test_explain_is_deterministic():
    d = compose(fr_complex("entrer", "vers"), FR, RULES)
    assert explain(d) == explain(compose(fr_complex("entrer", "vers"), FR, RULES))


def test_lref_location_naming():
    assert lref_location(fr_complex("sortir", "dans")) == "lref#sortir"


# -- derivation memo -------------------------------------------------------------

@st.composite
def prep_entries(draw):
    zone = draw(st.sampled_from(tuple(Zone)))
    if draw(st.booleans()):
        return PrepEntry("p", "pos", zone)
    role = draw(st.sampled_from(tuple(LrefRole)))
    attained = draw(st.booleans()) if role is LrefRole.FINAL else None
    return PrepEntry("p", "dir", zone, role=role, attained=attained)


def outcome(complex_, lexicon, rules):
    try:
        d = compose(complex_, lexicon, rules)
    except (AmbiguousRuleBaseError, InfelicitousError) as exc:
        return type(exc), str(exc)
    return d, explain(d)


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from(sorted(MEMO_BASES)),
    lemma=st.sampled_from(["v", "sortir", "a b"]),
    shape=st.sampled_from(VERB_SHAPES),
    prep=prep_entries(),
    ground=st.sampled_from(["g", "zz", "lref#v", "lref#sortir"]),
)
def test_memoized_compose_matches_a_cold_rule_base(base, lemma, shape, prep, ground):
    # the warm bases are shared by every example, so most calls rename a
    # derivation memoized for other lemmas and grounds; a ground named
    # lref#<lemma> is refused before any lookup, and one named like another
    # verb's reference location is a ground like any other
    warm = MEMO_BASES[base]
    lexicon = Lexicon("fr", {lemma: VerbEntry(lemma, "CoL", *shape)}, {"p": prep})
    if ground == f"lref#{lemma}":
        with pytest.raises(ValueError, match="is reserved for the reference location"):
            MotionComplex(lemma, "p", ground, "m", "fr")
        return
    complex_ = MotionComplex(lemma, "p", ground, "m", "fr")
    cold = RuleBase(warm.version, warm.rules)
    assert cold._derivations is not warm._derivations
    expected = outcome(complex_, lexicon, cold)
    assert outcome(complex_, lexicon, warm) == expected
    assert outcome(complex_, lexicon, warm) == expected
    assert cold == warm and hash(cold) == hash(warm) and repr(cold) == repr(warm)
    for name in ("version", "rules", "_derivations", "_verdicts"):
        with pytest.raises(AttributeError):
            setattr(warm, name, getattr(cold, name))


def test_derivation_memo_holds_one_entry_per_shape():
    # a text loaded twice is one base, so the second pass adds nothing
    text = dump_rulebase(RULES) + "# loaded by this test alone\n"
    first, second = load_rulebase(io.StringIO(text)), load_rulebase(io.StringIO(text))
    assert first is second and not first._derivations
    shapes = set()
    sizes = []
    for rules in (first, second):
        for lexicon, language in ((FR, "fr"), (EN, "en")):
            for verb, prep in all_col_prep_pairs(lexicon):
                shapes.add(
                    (verb.lref_role, verb.start_zone, verb.end_zone, prep.kind)
                    + (prep.role, prep.zone, prep.attained)
                )
                for ground in ("a", "g", "maison", "zz", "lref#x"):
                    complex_ = MotionComplex(verb.lemma, prep.lemma, ground, "m", language)
                    compose(complex_, lexicon, rules)  # lint passes the default base
        sizes.append(len(first._derivations))
    assert 0 < sizes[0] == sizes[1] <= len(shapes)


def derivation_or_error(complex_, lexicon, rules):
    try:
        return compose(complex_, lexicon, rules)
    except (AmbiguousRuleBaseError, InfelicitousError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(MEMO_BASES))
def test_shared_memo_matches_a_cold_compile_on_every_shape(name):
    # all 21 x 20 shapes: a text loaded again shares the memo the
    # first load filled under other names, and must rename to exactly what a
    # cold compile derives
    base = MEMO_BASES[name]
    # g sorts before lref#v; lref#w, named like another verb's reference
    # location, and the filler's zz sort after it
    grounds = ("lref#w", "g")
    # one base per ground, so each cold call compiles
    cold = {ground: RuleBase(base.version, base.rules) for ground in grounds}
    text = dump_rulebase(base).splitlines(keepends=True)
    filler = load_rulebase(text)
    assert len(VERB_SHAPES) * len(PREP_ENTRIES) == len(shape_lexicons("v")) == 420

    for lex in shape_lexicons("u"):
        derivation_or_error(MotionComplex("u", "p", "zz", "m", "fr"), lex, filler)
    filled = len(filler._derivations)
    shared = load_rulebase(text)
    assert shared is filler and shared == base
    assert not any(filler._derivations is c._derivations for c in cold.values())
    for lex in shape_lexicons("v"):
        for ground in grounds:
            complex_ = MotionComplex("v", "p", ground, "m", "fr")
            expected = derivation_or_error(complex_, lex, cold[ground])
            assert derivation_or_error(complex_, lex, shared) == expected
            if isinstance(expected, Derivation):
                assert validate_trace(expected.trace) == []
                rows = expected.trace.assignments  # a cold compile renames too
                assert rows == tuple(sorted(rows, key=lambda a: (a.location, a.phase)))
    assert 0 < len(filler._derivations) == filled <= 420


def test_a_memo_hit_keeps_the_canonical_row_order_on_either_side_of_the_lref():
    # a renamed trace takes its rows from the order stored for its side:
    # grounds a and zz sort before and after every lref#<verb>, and the
    # memo is filled with g, on a's side
    warm = RuleBase(RULES.version, RULES.rules)
    cold = RuleBase(RULES.version, RULES.rules)
    assert cold._derivations is not warm._derivations
    pairs = [
        (verb.lemma, prep.lemma, language, lexicon)
        for lexicon, language in ((FR, "fr"), (EN, "en"))
        for verb, prep in all_col_prep_pairs(lexicon)
    ]
    for verb, prep, language, lexicon in pairs:
        complex_ = MotionComplex(verb, prep, "g", "m", language)
        derivation_or_error(complex_, lexicon, warm)
    binds = 0
    for verb, prep, language, lexicon in pairs:
        for ground in ("a", "zz"):
            complex_ = MotionComplex(verb, prep, ground, "m", language)
            derivation = derivation_or_error(complex_, lexicon, warm)
            cold._derivations.clear()  # so that cold compiles
            assert derivation == derivation_or_error(complex_, lexicon, cold)
            if isinstance(derivation, Derivation):
                rows = derivation.trace.assignments
                assert rows == tuple(sorted(rows, key=lambda a: (a.location, a.phase)))
                binds += derivation.trace.lref != ground
    assert binds > 0


def test_identification_succeeds_exactly_when_the_features_say_it_can():
    # one clash-and-continuity check: under an identify-only base, every
    # directional shape composes exactly when compute_features flags it
    base = MEMO_BASES["identify-only"]
    complex_ = MotionComplex("v", "p", "g", "m", "fr")
    checked = 0
    for lex in shape_lexicons("v"):
        verb, prep = lex.verbs["v"], lex.preps["p"]
        if not prep.is_directional:
            continue
        composed = isinstance(derivation_or_error(complex_, lex, base), Derivation)
        assert composed == compute_features(verb, prep).zone_compatible, (verb, prep)
        checked += 1
    assert checked == len(VERB_SHAPES) * 16 == 336


def test_rule_bases_that_print_differently_share_no_memo():
    # equal rule tuples whose fields differ in type (43 vs 43.0) must not
    # hand each other their compiled derivations or stored verdicts, which
    # carry the rule: a constructed base starts with memos of its own
    complex_ = fr_complex("sortir", "dans")
    ints = default_rulebase()
    as_int = compose(complex_, FR, ints)
    # a float priority is refused when built, so these rules are built around it
    rules = tuple(hand_built(r, priority=float(r.priority)) for r in ints.rules)
    floats = RuleBase(ints.version, rules)
    assert floats == ints and floats._derivations is not ints._derivations
    assert floats._verdicts is not ints._verdicts
    as_float = compose(complex_, FR, floats)
    assert "fired rule: D2i (defeasible, priority 43)\n" in explain(as_int)
    assert "fired rule: D2i (defeasible, priority 43.0)\n" in explain(as_float)
    assert type(as_float.fired.priority) is float
    rebuilt = RuleBase(ints.version, rules)
    assert not rebuilt._derivations and not rebuilt._verdicts


def test_a_copied_or_rebuilt_rule_base_composes_like_a_cold_one():
    # the memos sit outside the fields: a copy or pickle carries them (a
    # shallow copy shares them), a rebuilt base starts its own, and none of
    # them composes otherwise than a base that compiles every shape afresh
    complex_ = MotionComplex("v", "p", "g", "m", "fr")

    def outcomes(rules):
        return [derivation_or_error(complex_, lex, rules) for lex in shape_lexicons("v")]

    base = default_rulebase()
    outcomes(base)  # warm: every shape memoized, and every vector a shape reaches
    expected = outcomes(RuleBase(base.version, base.rules))
    shallow, deep = copy.copy(base), copy.deepcopy(base)
    pickled = pickle.loads(pickle.dumps(base))
    rebuilt = (base._replace(), RuleBase(*base))
    for memo in ("_derivations", "_verdicts"):
        assert len(getattr(base, memo)) >= 29
        assert getattr(shallow, memo) is getattr(base, memo)
        for carried in (deep, pickled):
            assert getattr(carried, memo) == getattr(base, memo)
            assert getattr(carried, memo) is not getattr(base, memo)
        assert not any(getattr(other, memo) for other in rebuilt)
    for other in (shallow, deep, pickled, *rebuilt):
        assert type(other) is RuleBase and other == base
        assert outcomes(other) == expected
    for memo in ("_derivations", "_verdicts"):
        with pytest.raises(AttributeError):
            delattr(base, memo)
        with pytest.raises(AttributeError):
            setattr(base, memo, {})


# Rules whose own bind conclusion tags a fact unsoundly: C binds the ground
# at pre with zone distal but keeps the default prep tag, which the
# preposition alone supports only when it is itself initial and distal.
UNSOUND_RULES = {"default": set(), "identify-only": set(), "tie-and-bind": {"C"}}


@pytest.mark.parametrize("name", sorted(MEMO_BASES))
def test_provenance_is_sound_and_composing_is_idempotent_on_every_shape(name):
    # all 420 shapes: a verb fact lies in the verb's projection at
    # the lref, a prep fact in the preposition's at the ground, an interaction
    # fact in neither; composing again gives an equal derivation and text
    base = MEMO_BASES[name]
    unsound = set()
    complex_ = MotionComplex("v", "p", "g", "m", "fr")  # names only rename
    for lex in shape_lexicons("v"):
        first = derivation_or_error(complex_, lex, base)
        again = derivation_or_error(complex_, lex, base)
        assert again == first
        if not isinstance(first, Derivation):
            continue
        assert explain(again) == explain(first)
        trace = first.trace
        by_verb = verb_projection(lex.verbs["v"], trace.lref)
        by_prep = prep_projection(lex.preps["p"], trace.ground)
        for location, phase, zone, source in trace.assignments:
            fact = (location, phase, zone)
            sound = {
                Provenance.VERB: fact in by_verb,
                Provenance.PREP: fact in by_prep,
                Provenance.INTERACTION: fact not in by_verb | by_prep,
            }[source]
            if not sound:
                assert source is Provenance.PREP and location == trace.ground
                unsound.add(first.fired.id)
    assert unsound == UNSOUND_RULES[name]


def test_the_text_cache_is_bounded_and_an_evicted_text_reloads_equal():
    bound = _load_rulebase.cache_info().maxsize
    assert bound == 8
    text = dump_rulebase(RULES)
    texts = [  # each rule outranks every default rule, so its id shows in what fires
        text + f"R\tX{i}\tdefeasible\t{1000 + i}\tprepkind=pos\tbind(post)\n"
        for i in range(bound + 2)
    ]
    bases = [load_rulebase(io.StringIO(t)) for t in texts]
    assert _load_rulebase.cache_info().currsize <= bound
    evicted = bases[0]
    cases = [
        (MotionComplex(verb.lemma, prep.lemma, "g", "m", language), lexicon)
        for lexicon, language in ((FR, "fr"), (EN, "en"))
        for verb, prep in all_col_prep_pairs(lexicon)
    ]
    warm = [derivation_or_error(c, lexicon, evicted) for c, lexicon in cases]
    assert [derivation_or_error(c, lexicon, evicted) for c, lexicon in cases] == warm
    assert any(d.fired.id == "X0" for d in warm if isinstance(d, Derivation))
    reloaded = load_rulebase(io.StringIO(texts[0]))  # evicted, so parsed cold
    assert reloaded == evicted and reloaded is not evicted
    assert not reloaded._derivations
    assert [derivation_or_error(c, lexicon, reloaded) for c, lexicon in cases] == warm
    assert load_rulebase(io.StringIO(texts[-1])) is bases[-1]


def test_an_equal_text_loads_as_the_same_warm_base():
    text = dump_rulebase(RULES) + "# one more line, so that no other test loads it\n"
    first = load_rulebase(io.StringIO(text))
    compose(fr_complex("sortir", "dans"), FR, first)
    second = load_rulebase(text.splitlines(keepends=True))  # any iterable of the lines
    assert second is first and len(second._derivations) == 1
    assert default_rulebase() is default_rulebase()
    other_version = load_rulebase(io.StringIO(text.replace("VERSION\t", "VERSION\tv")))
    assert other_version != first and not other_version._derivations


def failure(text):
    try:
        load_rulebase(io.StringIO(text))
    except IllFormedEntryError as exc:
        return type(exc), str(exc), exc.line
    return None


@pytest.mark.parametrize(
    "bad", ["prepkind=maybe\tidentify", "prepkind=pos\tbind(later)"],
    ids=["guard", "conclusion"],
)
def test_a_failing_text_fails_alike_every_time(bad):
    good = "VERSION\t1\nR\tA\tdefeasible\t1\tprepkind=pos\tidentify\n"
    text = good + f"R\tB\tdefeasible\t2\t{bad}\n"
    first = failure(text)
    assert first is not None and first[1].startswith("line 3: ") and first[2] == 3
    assert failure(text) == first
    load_rulebase(io.StringIO(good))  # shares the failing line's guard or conclusion
    assert failure(text) == first


# Hand-built fields that equal a member without being one: the part of
# speech changed, the seed verb and preposition, and the fields.
EQUAL_FIELDS = {
    "role-1.0": ("verbs", "passer", "dans", {"lref_role": 1.0}),
    "attained-0": ("preps", "entrer", "vers", {"attained": 0}),
    "zones-0.0-2.0": ("verbs", "sortir", "dans", {"start_zone": 0.0, "end_zone": 2.0}),
}


def with_entry(lexicon, pos, entry):
    return lexicon._replace(**{pos: {**getattr(lexicon, pos), entry.lemma: entry}})


def outputs(complex_, lexicon, rules):
    try:
        d = compose(complex_, lexicon, rules)
    except (AmbiguousRuleBaseError, InfelicitousError) as exc:
        return type(exc), str(exc)
    return repr(d), explain(d), render_records(d.trace)


@pytest.mark.parametrize("odd_first", [True, False], ids=["odd-first", "seed-first"])
@pytest.mark.parametrize("name", sorted(EQUAL_FIELDS))
def test_a_field_equal_to_a_member_composes_as_the_member(name, odd_first):
    # the memo key compares by ==, so whichever entry of a shape fills the
    # memo, each must get what the member entry alone derives
    pos, verb, prep, fields = EQUAL_FIELDS[name]
    entry = FR.verbs[verb] if pos == "verbs" else FR.preps[prep]
    odd = with_entry(FR, pos, entry._replace(lemma="odd", **fields))
    twin = with_entry(FR, pos, entry._replace(lemma="odd"))
    lemmas = ("odd", prep) if pos == "verbs" else (verb, "odd")
    calls = {
        "odd": (fr_complex(*lemmas, ground="g"), odd),
        "seed": (fr_complex(verb, prep, ground="g"), FR),
    }
    expected = {
        "odd": outputs(calls["odd"][0], twin, RuleBase(RULES.version, RULES.rules)),
        "seed": outputs(*calls["seed"], RuleBase(RULES.version, RULES.rules)),
    }
    base = RuleBase(RULES.version, RULES.rules)
    for key in ("odd", "seed") if odd_first else ("seed", "odd"):
        assert outputs(*calls[key], base) == expected[key], key


# Fields that equal no member, built inside the test since the constructor
# refuses them: the class, the fields and the field the refusal names.
NO_MEMBER = {
    "zones-5-9": (VerbEntry, ("odd", "CoL", LrefRole.INITIAL, 5, 9, None), "start_zone 5"),
    "role-label": (
        VerbEntry,
        ("odd", "CoL", "initial", Zone.INSIDE, Zone.PROXIMAL, None),
        "lref_role 'initial'",
    ),
    "attained-2": (PrepEntry, ("odd", "dir", Zone.INSIDE, LrefRole.FINAL, 2), "attained 2"),
}


@pytest.mark.parametrize("name", sorted(NO_MEMBER))
def test_a_field_equal_to_no_member_is_ill_formed_every_time(name):
    cls, fields, named = NO_MEMBER[name]
    for _ in range(2):
        with pytest.raises(IllFormedEntryError) as info:
            cls(*fields)
        assert str(info.value) == f"'odd' has {named}, equal to no member"
    with pytest.raises(IllFormedEntryError) as info:
        cls._make(fields)
    assert str(info.value) == f"'odd' has {named}, equal to no member"
