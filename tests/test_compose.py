"""Composition engine: derivations, rule resolution, provenance, explanations."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings, strategies as st

from motionsem.compose import (
    Derivation,
    MotionComplex,
    compose,
    compute_features,
    explain,
    lref_location,
    prep_projection,
    verb_projection,
)
from motionsem.errors import (
    AmbiguousRuleBaseError,
    InfelicitousError,
    NotACoLVerbError,
    UnknownLemmaError,
)
from motionsem.lexicon import Lexicon, PrepEntry, VerbEntry, default_lexicon
from motionsem.rules import (
    RuleBase,
    applicable_rules,
    default_rulebase,
    load_rulebase,
)
from motionsem.trace import validate_trace
from motionsem.zones import LrefRole, Phase, Zone

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
    for _ in range(3):  # never memoized: raised on every repeat
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
    for _ in range(3):  # never memoized: raised on every repeat
        with pytest.raises(InfelicitousError) as info:
            compose(fr_complex("arriver", "jusqu'à", ground="maison"), FR, base)
        assert str(info.value) == (
            "no rule yields a well-formed trace for arriver + jusqu'à + maison"
        )


def test_infelicitous_when_no_rule_applies():
    base = load_rulebase(io.StringIO("R\tA\tdefeasible\t1\tprepkind=dir\tbind(post)\n"))
    with pytest.raises(InfelicitousError):
        compose(fr_complex("sortir", "dans"), FR, base)


def test_empty_complex_fields_rejected():
    with pytest.raises(ValueError, match="field verb_lemma must be nonempty"):
        MotionComplex("", "dans", "jardin", "mobile", "fr")
    with pytest.raises(ValueError, match="field language must be nonempty"):
        MotionComplex(
            verb_lemma="sortir", prep_lemma="dans", ground="g", mobile="m", language=""
        )
    with pytest.raises(ValueError, match="field ground must be nonempty"):
        fr_complex("sortir", "dans")._replace(ground="")


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
    base = RULES
    for rule in override.rules:
        base = base.with_rule(rule)
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

MEMO_BASES = {
    "default": RULES,
    "identify-only": load_rulebase(
        io.StringIO("R\tonly\tdefeasible\t1\tprepkind=dir\tidentify\n")
    ),
    "tie-and-bind": load_rulebase(
        io.StringIO(
            "R\tA\tdefeasible\t5\tprepkind=pos\tbind(post)\n"
            "R\tB\tdefeasible\t5\tprepkind=pos\tbind(pre)\n"
            "R\tC\tdefeasible\t9\tprepkind=dir\tbind(pre) zone=distal\n"
            "R\tD\tdefeasible\t3\tprepkind=dir\tidentify\n"
        )
    ),
}


@st.composite
def prep_entries(draw):
    zone = draw(st.sampled_from(Zone))
    if draw(st.booleans()):
        return PrepEntry("p", "pos", zone)
    role = draw(st.sampled_from(LrefRole))
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
    role=st.sampled_from(LrefRole),
    start=st.sampled_from(Zone),
    end=st.sampled_from(Zone),
    prep=prep_entries(),
    ground=st.sampled_from(["g", "zz", "lref#v", "lref#sortir"]),
)
def test_memoized_compose_matches_a_cold_rule_base(
    base, lemma, role, start, end, prep, ground
):
    # the warm bases are shared by every example, so most calls rename a
    # derivation memoized for other lemmas and grounds; a ground named
    # lref#<lemma> must bypass the memo
    warm = MEMO_BASES[base]
    lexicon = Lexicon("fr", {lemma: VerbEntry(lemma, "CoL", role, start, end)}, {"p": prep})
    complex_ = MotionComplex(lemma, "p", ground, "m", "fr")
    cold = RuleBase(warm.version, warm.rules)
    expected = outcome(complex_, lexicon, cold)
    assert outcome(complex_, lexicon, warm) == expected
    assert outcome(complex_, lexicon, warm) == expected
    assert cold == warm and hash(cold) == hash(warm) and repr(cold) == repr(warm)
    for name in ("version", "rules", "_rankings", "_derivations"):
        with pytest.raises(AttributeError):
            setattr(warm, name, getattr(cold, name))


def test_derivation_memo_holds_one_entry_per_shape():
    rules = RuleBase(RULES.version, RULES.rules)
    shapes = set()
    for lexicon, language in ((FR, "fr"), (EN, "en")):
        for verb, prep in all_col_prep_pairs(lexicon):
            shapes.add(
                (verb.lref_role, verb.start_zone, verb.end_zone, prep.kind)
                + (prep.role, prep.zone, prep.attained)
            )
            for ground in ("a", "g", "maison", "zz", f"lref#{verb.lemma}"):
                complex_ = MotionComplex(verb.lemma, prep.lemma, ground, "m", language)
                try:
                    compose(complex_, lexicon, rules)
                except InfelicitousError:
                    pass  # a bind onto a ground named like the lref clashes
    assert 0 < len(rules._derivations) <= len(shapes)
