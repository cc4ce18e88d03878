"""Rule base parsing, ranking, linting, and round-trips."""

from __future__ import annotations

import io
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from motionsem import rules as rules_module
from motionsem.compose import MotionComplex, compose, compute_features
from motionsem.errors import (
    WHITESPACE, AmbiguousRuleBaseError, FormatError, IllFormedEntryError, InfelicitousError,
    NotACoLVerbError,
)
from motionsem.lexicon import VERB_CATEGORIES, Lexicon, PrepEntry, VerbEntry, load_lexicon
from motionsem.rules import (
    _GUARD_VALUES,
    GUARD_KEYS,
    ComplexFeatures,
    CompositionRule,
    Conclusion,
    Defeat,
    Guard,
    LintCell,
    RuleBase,
    applicable_rules,
    default_rulebase,
    dump_rulebase,
    feature_vectors,
    lint_rulebase,
    load_rulebase,
    parse_conclusion,
    parse_guard,
    resolve,
)
from motionsem.trace import Provenance
from motionsem.zones import LrefRole, Phase, Zone

from shapes import MEMO_BASES, PREP_ENTRIES, VERB_SHAPES, shape_lexicons


def load(text: str):
    return load_rulebase(io.StringIO(text))


def rule_line(rule_id, strength, priority, guard, conclusion):
    return f"R\t{rule_id}\t{strength}\t{priority}\t{guard}\t{conclusion}\n"


def features(
    lref_role=LrefRole.INITIAL,
    prep_kind="pos",
    prep_role=None,
    zone_compatible=False,
    attained=None,
) -> ComplexFeatures:
    return ComplexFeatures(lref_role, prep_kind, prep_role, zone_compatible, attained)


def test_parse_guard():
    guard = parse_guard("prepkind=pos,zonecompat=yes")
    assert guard.matches(features(prep_kind="pos", zone_compatible=True).atoms)
    assert not guard.matches(features(prep_kind="pos", zone_compatible=False).atoms)
    assert not guard.matches(features(prep_kind="dir", zone_compatible=True).atoms)


def test_guard_on_absent_feature_never_matches():
    guard = parse_guard("preprole=final")
    assert not guard.matches(features(prep_kind="pos", prep_role=None).atoms)
    assert guard.matches(features(prep_kind="dir", prep_role=LrefRole.FINAL).atoms)
    attained_guard = parse_guard("attained=yes")
    assert not attained_guard.matches(
        features(prep_kind="dir", prep_role=LrefRole.INITIAL).atoms
    )
    assert attained_guard.matches(
        features(prep_kind="dir", prep_role=LrefRole.FINAL, attained=True).atoms
    )


def test_parse_guard_rejects_junk():
    for bad in ("", "prepkind", "prepkind=maybe", "color=red", "prepkind=pos,prepkind=dir"):
        with pytest.raises(IllFormedEntryError):
            parse_guard(bad)


_GUARD = Guard((("prepkind", "pos"),))
_BIND = Conclusion("bind", Phase.POST)
# Each refusal of the rule-side constructors: the class, its fields, the message.
RULE_REFUSALS = {
    "guard-empty": (Guard, ((),), "guard has no atom"),
    "guard-atom": (Guard, ((("prepkind",),),), "bad guard atom ('prepkind',)"),
    "guard-atom-text": (Guard, (("prepkind",),), "bad guard atom 'prepkind'"),
    "guard-value-type": (Guard, ((("prepkind", 1),),), "bad guard atom ('prepkind', 1)"),
    "guard-key": (Guard, ((("colour", "red"),),), "unknown guard key 'colour'"),
    "guard-value": (Guard, ((("prepkind", "POS"),),), "bad value 'POS' for prepkind"),
    "guard-look-alike": (Guard, ((("lrefrole", "\u0131nitial"),),),
                         "bad value '\u0131nitial' for lrefrole"),
    "guard-repeat": (Guard, ((("prepkind", "pos"), ("prepkind", "pos")),),
                     "guard repeats key 'prepkind'"),
    "conclusion-kind": (Conclusion, ("merge", None, None, None), "unknown conclusion 'merge'"),
    "bind-no-phase": (Conclusion, ("bind", None, Zone.INSIDE, None),
                      "'bind' has phase None, equal to no member"),
    "bind-phase": (Conclusion, ("bind", "post", None, None),
                   "'bind' has phase 'post', equal to no member"),
    "bind-zone": (Conclusion, ("bind", Phase.POST, "inside", None),
                  "'bind' has zone 'inside', equal to no member"),
    "bind-provenance": (Conclusion, ("bind", Phase.POST, None, "Verb"),
                        "'bind' has provenance 'Verb', equal to no member"),
    "identify-field": (Conclusion, ("identify", Phase.POST, None, None),
                       "identify takes no options"),
    "forbid-field": (Conclusion, ("forbid", None, None, Provenance.VERB),
                     "forbid(identify) takes no options"),
    "strength": (CompositionRule, ("A", "bogus", 1, _GUARD, _BIND), "bad strength 'bogus'"),
    "float-priority": (CompositionRule, ("A", "strict", 43.0, _GUARD, _BIND),
                       "bad priority '43.0'"),
    "bool-priority": (CompositionRule, ("A", "strict", True, _GUARD, _BIND),
                      "bad priority 'True'"),
    "text-priority": (CompositionRule, ("A", "strict", "5", _GUARD, _BIND), "bad priority '5'"),
    "no-guard": (CompositionRule, ("A", "strict", 1, None, _BIND), "bad guard None"),
    "guard-atoms": (CompositionRule, ("A", "strict", 1, _GUARD.atoms, _BIND),
                    "bad guard (('prepkind', 'pos'),)"),
    "no-conclusion": (CompositionRule, ("A", "strict", 1, _GUARD, None), "bad conclusion None"),
    "conclusion-text": (CompositionRule, ("A", "strict", 1, _GUARD, "identify"),
                        "bad conclusion 'identify'"),
}
RULE_VALID = {
    Guard: _GUARD,
    Conclusion: _BIND,
    CompositionRule: CompositionRule("A", "strict", 1, _GUARD, _BIND),
}


@pytest.mark.parametrize("name", list(RULE_REFUSALS))
def test_a_rule_no_rule_line_gives_is_refused_however_it_is_built(name):
    cls, fields, message = RULE_REFUSALS[name]
    for build in (
        lambda: cls(*fields),
        lambda: cls(**dict(zip(cls._fields, fields))),
        lambda: cls._make(fields),
        lambda: RULE_VALID[cls]._replace(**dict(zip(cls._fields, fields))),
    ):
        with pytest.raises(IllFormedEntryError) as info:
            build()
        assert str(info.value) == message and info.value.line is None


def test_a_guard_and_a_bind_hold_what_a_rule_line_reads():
    guard = Guard([("lrefrole", "INITIAL"), ("preprole", "Final"), ("prepkind", "dir")])
    assert guard.atoms == (("lrefrole", "initial"), ("preprole", "final"), ("prepkind", "dir"))
    assert type(guard.atoms) is tuple and guard == parse_guard(guard.render())
    bind = Conclusion("bind", 2.0, 0, "verb")
    assert bind == ("bind", Phase.POST, Zone.INSIDE, Provenance.VERB)
    assert [type(field) for field in bind[1:]] == [Phase, Zone, Provenance]
    assert Conclusion("bind", True).phase is Phase.DURING
    assert Conclusion("identify") == ("identify", None, None, None)


def test_a_rule_base_holds_rules_with_distinct_ids():
    rule = RULE_VALID[CompositionRule]
    for rules, message in [
        ((rule, rule), "rule id 'A' repeated"),
        ((rule, rule._replace(id="B"), rule._replace(priority=7)), "rule id 'A' repeated"),
        (("x",), "bad rules ('x',)"),
        ((rule, None), f"bad rules ({rule!r}, None)"),
        ([rule], f"bad rules [{rule!r}]"),
    ]:
        with pytest.raises(IllFormedEntryError) as info:
            RuleBase("v", rules)
        assert str(info.value) == message and info.value.line is None
    assert RuleBase("v", (rule, rule._replace(id="B"))).rules[1].id == "B"


def test_parse_conclusion_forms():
    assert parse_conclusion("identify") == Conclusion(kind="identify")
    assert parse_conclusion("forbid(identify)") == Conclusion(kind="forbid")
    bind = parse_conclusion("bind(post) zone=proximal prov=prep")
    assert bind.kind == "bind"
    assert bind.phase is Phase.POST
    assert bind.zone is Zone.PROXIMAL
    assert bind.provenance is Provenance.PREP
    bare = parse_conclusion("bind(during)")
    assert bare.zone is None and bare.provenance is None


def test_parse_conclusion_rejects_junk():
    for bad in ("", "identify extra", "bind(nowhere)", "bind(post) color=red", "veto"):
        with pytest.raises(IllFormedEntryError):
            parse_conclusion(bad)


def test_a_flood_of_spellings_parses_to_one_guard_and_conclusion():
    # 600 rules whose guards and conclusions are spelt apart, each once
    base = load("".join(
        rule_line(f"r{i}", "defeasible", i, "prepkind=pos," + " " * i + "attained=no",
                  "bind(post)" + " " * (i + 1) + "zone=inside")
        for i in range(600)
    ))
    guard = Guard((("prepkind", "pos"), ("attained", "no")))
    conclusion = Conclusion("bind", Phase.POST, Zone.INSIDE)
    assert {(r.guard, r.conclusion) for r in base.rules} == {(guard, conclusion)}


def test_load_default_rulebase():
    base = default_rulebase()
    assert base.version == "1"
    assert len(base.rules) == 12
    by_id = {r.id: r for r in base.rules}
    assert by_id["S1"].is_strict
    assert by_id["S1"].conclusion.kind == "forbid"
    assert sum(1 for r in base.rules if r.is_strict) == 1
    # priorities of defeasible rules are pairwise distinct: no silent ties
    priorities = [r.priority for r in base.rules if not r.is_strict]
    assert len(priorities) == len(set(priorities))


def test_duplicate_rule_id_rejected():
    text = rule_line("A", "defeasible", 1, "prepkind=pos", "identify") + rule_line(
        "A", "defeasible", 2, "prepkind=dir", "identify"
    )
    with pytest.raises(IllFormedEntryError) as err:
        load(text)
    assert err.value.line == 2


def test_malformed_rule_lines():
    with pytest.raises(IllFormedEntryError):
        load("R\tA\tdefeasible\t1\tprepkind=pos\n")  # missing conclusion
    with pytest.raises(IllFormedEntryError):
        load(rule_line("A", "soft", 1, "prepkind=pos", "identify"))
    with pytest.raises(IllFormedEntryError):
        load(rule_line("A", "defeasible", "high", "prepkind=pos", "identify"))
    with pytest.raises(IllFormedEntryError):
        load("X\tweird\n")


@pytest.mark.parametrize(
    "guard, conclusion, message",
    [
        ("", "identify", "bad guard atom ''"),
        ("prepkind=pos,", "identify", "bad guard atom ''"),
        ("prepkind=pos", "forbid(identify) now", "forbid(identify) takes no options"),
        ("prepkind=pos", "identify zone=inside prov=verb a b", "identify takes no options"),
    ],
    ids=["empty-guard", "trailing-comma", "forbid-option", "identify-options"],
)
def test_a_malformed_guard_or_conclusion_names_its_line(guard, conclusion, message):
    with pytest.raises(IllFormedEntryError) as err:
        load("VERSION\t1\n" + rule_line("A", "defeasible", 1, guard, conclusion))
    assert str(err.value) == f"line 2: {message}" and err.value.line == 2


def test_strict_outranks_priority():
    base = load(
        rule_line("weak", "strict", 1, "prepkind=pos", "identify")
        + rule_line("strong", "defeasible", 99, "prepkind=pos", "bind(post)")
    )
    hits = applicable_rules(features(prep_kind="pos", zone_compatible=True), base)
    assert [r.id for r in hits] == ["weak", "strong"]


def test_applicable_rules_stable_order():
    base = load(
        rule_line("A", "defeasible", 5, "prepkind=pos", "identify")
        + rule_line("B", "defeasible", 5, "prepkind=pos", "bind(post)")
        + rule_line("C", "defeasible", 7, "prepkind=pos", "bind(pre)")
    )
    hits = applicable_rules(features(prep_kind="pos"), base)
    assert [r.id for r in hits] == ["C", "A", "B"]  # ties keep file order


def test_empty_guard_set_yields_empty_list():
    base = load(rule_line("A", "defeasible", 5, "prepkind=dir", "identify"))
    assert applicable_rules(features(prep_kind="pos"), base) == []


def test_lint_shipped_base_is_total_and_tie_free():
    report = lint_rulebase(default_rulebase())
    assert report.ok
    assert report.gap_cells == ()
    assert report.tie_cells == ()
    assert "complete" in report.render()


def test_lint_without_positional_rules_reports_three_gaps():
    base = default_rulebase()
    kept = tuple(r for r in base.rules if ("prepkind", "pos") not in r.guard.atoms)
    report = lint_rulebase(type(base)(version=base.version, rules=kept))
    assert len(report.gap_cells) == 3
    assert all(cell.prep_kind == "pos" for cell in report.gap_cells)


def test_lint_empty_base_reports_twelve_gaps():
    report = lint_rulebase(load(""))
    assert len(report.gap_cells) == 12
    assert report.tie_cells == ()


def test_lint_detects_possible_ties():
    base = load(
        rule_line("A", "defeasible", 5, "prepkind=pos", "identify")
        + rule_line("B", "defeasible", 5, "prepkind=pos,zonecompat=yes", "bind(post)")
    )
    report = lint_rulebase(base)
    tied_cells = {cell.label() for cell, _ in report.tie_cells}
    assert tied_cells  # pos cells where both apply and tie
    assert all("pos" in label for label in tied_cells)


def test_veto_only_cell_is_still_a_gap():
    base = load(rule_line("S", "strict", 9, "prepkind=pos", "forbid(identify)"))
    report = lint_rulebase(base)
    assert len(report.gap_cells) == 12


def test_round_trip_default_base():
    base = default_rulebase()
    assert load(dump_rulebase(base)) == base


def test_round_trip_keeps_version():
    base = load("VERSION\t2024-custom\n" + rule_line("A", "defeasible", 1, "prepkind=pos", "identify"))
    again = load(dump_rulebase(base))
    assert again.version == "2024-custom"
    assert again == base


# Names stripped of ASCII whitespace alone, so that some start or end with
# a no-break or em space, as a rule id or VERSION value may; none is blank.
_NAMES = st.text("ab1- \u00a0\u2003", min_size=1, max_size=8).map(
    lambda name: name.strip(WHITESPACE)
).filter(lambda name: name and not name.isspace())


@settings(max_examples=30, deadline=None)
@given(version=_NAMES, ids=st.lists(_NAMES, min_size=1, max_size=4, unique=True))
def test_generated_rule_bases_round_trip(version, ids):
    rules = tuple(rule._replace(id=i) for rule, i in zip(default_rulebase().rules, ids))
    base = RuleBase(version, rules)
    assert load(dump_rulebase(base)) == base


# Raw text for a rule id or a VERSION value: a core that may hold ASCII
# whitespace, line breaks and an escape, between edges that may be a no-break
# or em space, an ASCII space or tab, or a line break.
_EDGE = st.sampled_from(["", "", "\u00a0", "\u2003", " ", "\t", "\n"])
_RAW = st.tuples(_EDGE, st.text("ab1- \t\n\r\x1b\x85", max_size=3), _EDGE).map("".join)


def read_back(text):
    """The rule base text loads as, or the FormatError it raises."""
    try:
        return load(text)
    except FormatError as exc:
        return exc


# Raw fields of a rule besides its id: each a value a rule line gives or
# one that equals it, prints as it or names it in another case, or none.
_STRENGTHS = st.sampled_from(["strict", "defeasible", "Strict", "bogus", " strict"])
_PRIORITIES = st.sampled_from([5, -3, 43.0, True, False, "5", None])
_ATOMS = st.lists(st.tuples(
    st.sampled_from(["prepkind", "lrefrole", "attained", "colour"]),
    st.sampled_from(["pos", "dir", "initial", "INITIAL", "Final", "\u0131nitial", "yes", "maybe"]),
), max_size=3)
_CONCLUSIONS = st.tuples(
    st.sampled_from(["identify", "forbid", "bind", "merge"]),
    st.none() | st.sampled_from([Phase.POST, 2, 2.0, "post", True]),
    st.none() | st.sampled_from([Zone.INSIDE, 0, "inside"]),
    st.none() | st.sampled_from([Provenance.VERB, "verb", "Verb"]),
)


def spelt(value) -> str:
    """A field as a rule line spells it: a label for a member, else its text."""
    return value.label if isinstance(value, (Phase, Zone, Provenance)) else str(value)


def rule_text(rule_id, strength, priority, atoms, conclusion) -> str:
    """The rule line of raw fields, as dump_rulebase would write them if they were valid."""
    kind, phase, zone, prov = conclusion
    head = {"identify": "identify", "forbid": "forbid(identify)"}.get(kind)
    named = (("zone", zone), ("prov", prov))
    options = [f"{name}={spelt(value)}" for name, value in named if value is not None]
    written = " ".join([head or f"{kind}({spelt(phase)})", *options])
    guard = ",".join(f"{key}={value}" for key, value in atoms)
    return rule_line(rule_id, spelt(strength), spelt(priority), guard, written)


@settings(max_examples=40, deadline=None)
@example(version="\u00a0v1\u2003", ids=["\u2003D1\u00a0", " D2"], fields=[])
@example(version="v1 ", ids=["D1"], fields=[])
@example(version="v1", ids=["D1", "D1"], fields=[])
@example(version="v1", ids=["D1"],
         fields=[("bogus", 5, [("prepkind", "pos")], ("forbid", None, None, None))])
@example(version="v1", ids=["D1"], fields=[("strict", 43.0, [], ("bind", None, None, None))])
@given(version=_RAW, ids=st.lists(_RAW, min_size=1, max_size=3),
       fields=st.lists(st.tuples(_STRENGTHS, _PRIORITIES, _ATOMS, _CONCLUSIONS), max_size=3))
def test_the_constructors_accept_exactly_the_names_that_load_back_as_dumped(
    version, ids, fields
):
    # what Guard, Conclusion, CompositionRule and RuleBase accept,
    # dump_rulebase writes and load_rulebase reads back equal; what they
    # refuse, written in the same format, is refused by load_rulebase or read
    # back changed.  The first rules take their fields from fields, the rest
    # keep those of a default rule
    defaults = [(r.strength, r.priority, r.guard.atoms, r.conclusion) for r in DEFAULT_RULES]
    rules = []
    for rule_id, raw in zip(ids, fields + defaults[len(fields):]):
        strength, priority, atoms, conclusion = raw
        try:
            rules.append(CompositionRule(rule_id, strength, priority, Guard(tuple(atoms)),
                                         Conclusion(*conclusion)))
        except IllFormedEntryError:
            given = (rule_id, strength, priority, tuple(atoms), tuple(conclusion))
            loaded = read_back(rule_text(rule_id, *raw))
            assert isinstance(loaded, FormatError) or [
                (r.id, r.strength, r.priority, r.guard.atoms, tuple(r.conclusion))
                for r in loaded.rules
            ] != [given]
    try:
        base = RuleBase(version, tuple(rules))
    except IllFormedEntryError:  # a version or a repeated id
        loaded = read_back(f"VERSION\t{version}\n" + "".join(r.render() + "\n" for r in rules))
        assert isinstance(loaded, FormatError) or loaded.version != version
    else:
        assert load(dump_rulebase(base)) == base


@pytest.mark.parametrize(
    "name",
    [" D1", "D1\t", "a\tb", "", "\u2003", "D2\x1b[2Ki", "a\nb", 7, None],
    ids=["padded", "tab-end", "tab", "empty", "em-space", "escape", "line-break", "int", "none"],
)
def test_a_rule_id_or_version_a_dump_would_not_give_back_is_refused(name):
    rule = default_rulebase().rules[0]
    for build, message in [
        (lambda: rule._replace(id=name), f"bad rule id {name!r}"),
        (lambda: CompositionRule(name, *rule[1:]), f"bad rule id {name!r}"),
        (lambda: RuleBase(name, (rule,)), f"bad version {name!r}"),
    ]:
        with pytest.raises(IllFormedEntryError) as info:
            build()
        assert str(info.value) == message


# The 30 feature vectors compute_features can produce: 3 verb roles x 4
# preposition shapes, times zone compatibility, times attainment where the
# preposition is directional-final (the oracle of feature_vectors).
COMPLETIONS = [
    ComplexFeatures(lref_role, prep_kind, prep_role, compatible, attained)
    for lref_role in LrefRole
    for prep_kind, prep_role in (
        ("pos", None),
        ("dir", LrefRole.INITIAL),
        ("dir", LrefRole.MEDIAL),
        ("dir", LrefRole.FINAL),
    )
    for compatible in (True, False)
    for attained in ((True, False) if prep_role is LrefRole.FINAL else (None,))
]


def test_feature_vectors_are_the_completions_in_order():
    assert feature_vectors() == tuple(COMPLETIONS)
    assert all(type(features) is ComplexFeatures for features in feature_vectors())


def atom_by_atom(atoms, features) -> bool:
    """Reference guard semantics: an atom on an absent feature never matches."""
    lref_role, prep_kind, prep_role, compatible, attained = features
    values = {
        "lrefrole": lref_role.name.lower(),
        "prepkind": prep_kind,
        "preprole": None if prep_role is None else prep_role.name.lower(),
        "zonecompat": "yes" if compatible else "no",
        "attained": None if attained is None else ("yes" if attained else "no"),
    }
    return all(values[key] is not None and values[key] == value for key, value in atoms)


def test_guard_matching_equals_atom_by_atom_definition():
    assert len(COMPLETIONS) == 30
    guards = [
        Guard(tuple((key, value) for key, value in zip(GUARD_KEYS, choice) if value))
        for choice in list(itertools.product(
            *[(None,) + _GUARD_VALUES[key] for key in GUARD_KEYS]
        ))[1:]  # the first choice is the empty guard, which Guard refuses
    ]
    assert len(guards) == 4 * 3 * 4 * 3 * 3 - 1
    for guard in guards:
        for features in COMPLETIONS:
            assert guard.matches(features.atoms) == atom_by_atom(guard.atoms, features), (
                guard,
                features,
            )


@pytest.mark.parametrize("role", [1.0, True])
def test_feature_atoms_read_a_role_as_the_member_it_equals_in_either_order(role):
    # the atoms are built afresh on each read, so neither order may change them
    members = [ComplexFeatures(LrefRole.MEDIAL, "dir", LrefRole.MEDIAL, True, None)]
    members.append(members[0]._replace(prep_kind="pos", prep_role=None))
    for member in members:
        equal = member._replace(lref_role=role)
        if member.prep_role is not None:
            equal = equal._replace(prep_role=role)
        first = equal.atoms
        assert member.atoms == first
        assert member.atoms == equal.atoms == first
        assert ("lrefrole", "medial") in first
        assert ("preprole", "medial") in first or member.prep_role is None


@pytest.mark.parametrize("role", [1.5, -1, 3, "medial"])
def test_feature_atoms_refuse_a_role_that_equals_no_member(role):
    for features in (
        ComplexFeatures(role, "pos", None, True, None),
        ComplexFeatures(LrefRole.MEDIAL, "dir", role, True, None),
    ):
        with pytest.raises(ValueError):
            features.atoms
        assert features._replace(lref_role=LrefRole.MEDIAL, prep_role=None).atoms
        with pytest.raises(ValueError):
            features.atoms


I, M, F = LrefRole.INITIAL, LrefRole.MEDIAL, LrefRole.FINAL

# (lref_role, prep_kind, prep_role, zone_compatible, attained) -> ranked ids
DEFAULT_RANKING = {
    (I, "pos", None, True, None): "D1",
    (I, "pos", None, False, None): "D2i",
    (I, "dir", I, True, None): "D3i D4i",
    (I, "dir", I, False, None): "S1 D3i D4i",
    (I, "dir", M, True, None): "D4m",
    (I, "dir", M, False, None): "S1 D4m",
    (I, "dir", F, True, True): "D4f",
    (I, "dir", F, True, False): "D5 D4f",
    (I, "dir", F, False, True): "S1 D4f",
    (I, "dir", F, False, False): "S1 D5 D4f",
    (M, "pos", None, True, None): "D1",
    (M, "pos", None, False, None): "D2m",
    (M, "dir", I, True, None): "D4i",
    (M, "dir", I, False, None): "S1 D4i",
    (M, "dir", M, True, None): "D3m D4m",
    (M, "dir", M, False, None): "S1 D3m D4m",
    (M, "dir", F, True, True): "D4f",
    (M, "dir", F, True, False): "D5 D4f",
    (M, "dir", F, False, True): "S1 D4f",
    (M, "dir", F, False, False): "S1 D5 D4f",
    (F, "pos", None, True, None): "D1",
    (F, "pos", None, False, None): "D2f",
    (F, "dir", I, True, None): "D4i",
    (F, "dir", I, False, None): "S1 D4i",
    (F, "dir", M, True, None): "D4m",
    (F, "dir", M, False, None): "S1 D4m",
    (F, "dir", F, True, True): "D3f D4f",
    (F, "dir", F, True, False): "D3f D5 D4f",
    (F, "dir", F, False, True): "S1 D3f D4f",
    (F, "dir", F, False, False): "S1 D3f D5 D4f",
}


def test_default_ranking_is_pinned():
    base = default_rulebase()
    assert set(DEFAULT_RANKING) == set(COMPLETIONS)
    for features in COMPLETIONS:
        ranked = applicable_rules(features, base)
        assert " ".join(r.id for r in ranked) == DEFAULT_RANKING[features], features
        assert len({r.sort_key() for r in ranked}) == len(ranked)  # no tie


# (lref_role, prep_kind, prep_role, zone_compatible, attained) -> the fired
# rule, then each defeat: rule, reason, and the rule it was defeated by
DEFAULT_DEFEATS = {
    (I, "pos", None, True, None): "D1",
    (I, "pos", None, False, None): "D2i",
    (I, "dir", I, True, None): "D3i; D4i guard subsumed by D3i",
    (I, "dir", I, False, None): "D4i; D3i identification forbidden by S1",
    (I, "dir", M, True, None): "D4m",
    (I, "dir", M, False, None): "D4m",
    (I, "dir", F, True, True): "D4f",
    (I, "dir", F, True, False): "D5; D4f guard subsumed by D5",
    (I, "dir", F, False, True): "D4f",
    (I, "dir", F, False, False): "D5; D4f guard subsumed by D5",
    (M, "pos", None, True, None): "D1",
    (M, "pos", None, False, None): "D2m",
    (M, "dir", I, True, None): "D4i",
    (M, "dir", I, False, None): "D4i",
    (M, "dir", M, True, None): "D3m; D4m guard subsumed by D3m",
    (M, "dir", M, False, None): "D4m; D3m identification forbidden by S1",
    (M, "dir", F, True, True): "D4f",
    (M, "dir", F, True, False): "D5; D4f guard subsumed by D5",
    (M, "dir", F, False, True): "D4f",
    (M, "dir", F, False, False): "D5; D4f guard subsumed by D5",
    (F, "pos", None, True, None): "D1",
    (F, "pos", None, False, None): "D2f",
    (F, "dir", I, True, None): "D4i",
    (F, "dir", I, False, None): "D4i",
    (F, "dir", M, True, None): "D4m",
    (F, "dir", M, False, None): "D4m",
    (F, "dir", F, True, True): "D3f; D4f guard subsumed by D3f",
    (F, "dir", F, True, False): "D3f; D5 lower priority by D3f; D4f guard subsumed by D3f",
    (F, "dir", F, False, True): "D4f; D3f identification forbidden by S1",
    (F, "dir", F, False, False): (
        "D5; D3f identification forbidden by S1; D4f guard subsumed by D5"
    ),
}


def outcome_line(fired, defeated) -> str:
    return "; ".join(
        [fired.id]
        + [f"{d.rule_id} {d.reason}" + (f" by {d.defeated_by}" if d.defeated_by else "")
           for d in defeated]
    )


def test_default_defeats_are_pinned():
    base = default_rulebase()
    assert set(DEFAULT_DEFEATS) == set(COMPLETIONS)
    for features in COMPLETIONS:
        fired, defeated, tied = resolve(features, base)
        assert tied == ()
        assert outcome_line(fired, defeated) == DEFAULT_DEFEATS[features], features


def test_a_failed_verdict_keeps_the_fates_of_its_candidates():
    # no rule fires, yet each candidate's fate is in the verdict
    incompatible = features(prep_kind="dir", prep_role=LrefRole.INITIAL)
    assert resolve(incompatible, MEMO_BASES["identify-only"]) == (
        None, (Defeat("only", None, "conclusion inconsistent"),), ()
    )
    vetoed = load(
        rule_line("F", "strict", 1, "prepkind=dir", "forbid(identify)")
        + rule_line("I", "defeasible", 9, "prepkind=dir", "identify")
    )
    compatible = incompatible._replace(zone_compatible=True)
    assert resolve(compatible, vetoed) == (
        None, (Defeat("I", "F", "identification forbidden"),), ()
    )


def inventory_lexicon():
    """One lexicon file holding every verb shape and preposition shape it can load."""
    lines = ["LANG\tfr"]
    for index, (role, start, end) in enumerate(VERB_SHAPES):
        lines.append(f"V\tv{index}\tCoL\t{role.label}\t{start.label}\t{end.label}")
    for index, prep in enumerate(PREP_ENTRIES):
        role = "" if prep.role is None else f"\t{prep.role.label}"
        attained = "" if prep.attained is None else f"\tattained={prep.attained}".lower()
        lines.append(f"P\tp{index}\t{prep.kind}{role}\t{prep.zone.label}{attained}")
    return load_lexicon(lines)


INVENTORY = inventory_lexicon()
# The one completion that no shape reaches: a medial verb ends in contact,
# and an unattained directional-final preposition commits to proximal at the
# post phase, so the two always clash.
UNREACHED = ComplexFeatures(M, "dir", F, True, False)


def verdict(call):
    """None if call returns; else what lint reports for compose()'s error."""
    try:
        call()
    except InfelicitousError:
        return "gap"
    except AmbiguousRuleBaseError as exc:
        return "/".join(exc.rule_ids)
    return None


def run_time_verdicts(base):
    """compose()'s verdicts on the 420 shapes, by feature vector."""
    found: dict[ComplexFeatures, set] = {}
    complex_ = MotionComplex("v", "p", "g", "m", "fr")
    for lexicon in shape_lexicons("v"):
        verb, prep = lexicon.verbs["v"], lexicon.preps["p"]
        seen = found.setdefault(compute_features(verb, prep), set())
        seen.add(verdict(lambda: compose(complex_, lexicon, base)))
    return found


def assert_lint_is_run_time(base):
    """Lint reports a cell for a completion exactly when compose() raises there."""
    found = run_time_verdicts(base)
    assert set(COMPLETIONS) - set(found) == {UNREACHED}
    verdicts = {}
    for features in COMPLETIONS:
        fired, _, tied = resolve(features, base)
        verdicts[features] = "/".join(tied) if tied else "gap" if fired is None else None
    for features, seen in found.items():
        assert seen == {verdicts[features]}, features

    gaps: dict[LintCell, None] = {}
    ties: dict[LintCell, set] = {}
    for features in COMPLETIONS:
        cell, found_verdict = LintCell(*features[:3]), verdicts[features]
        if found_verdict == "gap":
            gaps[cell] = None
        elif found_verdict is not None:
            ties.setdefault(cell, set()).add(found_verdict)
    report = lint_rulebase(base)
    assert report.gap_cells == tuple(gaps)
    assert report.tie_cells == tuple(
        (cell, ids) for cell, tied in ties.items() for ids in sorted(tied)
    )
    return report, found


def outcome(lexicon, base):
    """compose()'s derivation of v + p + g, or its error's type and message."""
    try:
        return compose(MotionComplex("v", "p", "g", "m", "fr"), lexicon, base)
    except (AmbiguousRuleBaseError, InfelicitousError) as exc:
        return type(exc), str(exc)


def sweep(base):
    """compose()'s outcome on each of the 420 shapes."""
    return [outcome(lexicon, base) for lexicon in shape_lexicons("v")]


def test_compose_and_lint_store_one_verdict_per_feature_vector():
    # a cold pass over the shapes stores the 29 vectors they reach, lint adds
    # the one they never reach, and nothing after that stores another
    default = default_rulebase()
    base = RuleBase(default.version, default.rules)
    assert not base._verdicts and not base._derivations
    sweep(base)
    assert len(base._verdicts) == 29 and len(base._derivations) == 420
    stored = dict(base._verdicts)
    lint_rulebase(base)
    assert set(base._verdicts) - set(stored) == {UNREACHED}
    assert all(base._verdicts[features] is verdict for features, verdict in stored.items())
    stored = dict(base._verdicts)
    sweep(base)
    lint_rulebase(base)
    assert base._verdicts == stored and len(base._derivations) == 420
    linted_first = RuleBase(base.version, base.rules)
    lint_rulebase(linted_first)
    assert set(linted_first._verdicts) == set(feature_vectors())
    sweep(linted_first)
    assert len(linted_first._verdicts) == 30 and len(linted_first._derivations) == 420
    # a failed verdict's shape is memoized too
    failing = RuleBase(MEMO_BASES["identify-only"].version, MEMO_BASES["identify-only"].rules)
    sweep(failing)
    assert len(failing._verdicts) == 29 and len(failing._derivations) == 420


def test_inventory_lexicon_loads_420_shapes():
    assert len(INVENTORY.verbs) == 21 and len(INVENTORY.preps) == 20
    assert [tuple(verb[2:5]) for verb in INVENTORY.verbs.values()] == VERB_SHAPES
    assert sorted(
        tuple(prep[1:]) for prep in INVENTORY.preps.values()
    ) == sorted(tuple(prep[1:]) for prep in PREP_ENTRIES)


WITNESS = load(
    rule_line("F", "strict", 90, "prepkind=pos", "forbid(identify)")
    + rule_line("A", "defeasible", 10, "prepkind=pos", "bind(post)")
    + rule_line("B", "defeasible", 10, "prepkind=pos", "bind(pre)")
    + rule_line("I", "defeasible", 5, "prepkind=dir", "identify")
)


def test_lint_fails_a_tie_below_a_veto_and_an_inconsistent_identify():
    report = lint_rulebase(WITNESS)
    assert not report.ok
    assert report.gap_cells == tuple(
        LintCell(role, "dir", prep_role) for role in LrefRole for prep_role in LrefRole
    )
    assert report.tie_cells == tuple((LintCell(role, "pos", None), "A/B") for role in LrefRole)


@pytest.mark.parametrize("name", [*sorted(MEMO_BASES), "witness"])
def test_lint_is_run_time_on_every_inventory_shape(name):
    # every one of the 420 shapes a lexicon loads
    assert_lint_is_run_time(MEMO_BASES.get(name, WITNESS))


def test_defeats_at_run_time_match_the_pinned_ones():
    base = default_rulebase()
    for verb in INVENTORY.verbs.values():
        for prep in INVENTORY.preps.values():
            d = compose(MotionComplex(verb.lemma, prep.lemma, "g", "m", "fr"), INVENTORY, base)
            assert outcome_line(d.fired, d.defeated) == DEFAULT_DEFEATS[d.features]


DEFAULT_RULES = default_rulebase().rules
ATOMS = [(key, value) for key in GUARD_KEYS for value in _GUARD_VALUES[key]]
extra_rules = st.builds(
    lambda strength, priority, atoms, conclusion: (strength, priority, atoms, conclusion),
    st.sampled_from(("strict", "defeasible")),
    st.sampled_from((1, 22, 50, 65, 100)),  # some tie with the default rules
    st.lists(st.sampled_from(ATOMS), min_size=1, max_size=3, unique_by=lambda a: a[0]),
    st.one_of(
        st.just(Conclusion("identify")),
        st.just(Conclusion("forbid")),
        st.builds(
            Conclusion,
            st.just("bind"),
            st.sampled_from(tuple(Phase)),
            st.none() | st.sampled_from(tuple(Zone)),
            st.none() | st.sampled_from(tuple(Provenance)),
        ),
    ),
)


def generated(dropped, extra) -> tuple:
    """The default rules but the dropped ids, then the extra rules as X0, X1, ..."""
    return tuple([r for r in DEFAULT_RULES if r.id not in dropped] + [
        CompositionRule(f"X{index}", strength, priority, Guard(tuple(atoms)), conclusion)
        for index, (strength, priority, atoms, conclusion) in enumerate(extra)
    ])


@settings(max_examples=15, deadline=None)
@given(
    dropped=st.sets(st.sampled_from([r.id for r in DEFAULT_RULES]), max_size=3),
    extra=st.lists(extra_rules, max_size=3),
)
def test_a_base_lint_passes_never_fails_at_run_time(dropped, extra):
    report, found = assert_lint_is_run_time(RuleBase("generated", generated(dropped, extra)))
    if report.ok:
        assert all(seen == {None} for seen in found.values())


@settings(max_examples=5, deadline=None)
@given(
    dropped=st.sets(st.sampled_from([r.id for r in DEFAULT_RULES]), max_size=3),
    extra=st.lists(extra_rules, max_size=3),
)
def test_lint_first_or_compose_first_reads_what_a_cold_base_reads(dropped, extra):
    # the stored verdicts never depend on which caller filled them: lint and
    # the 420 shapes come out alike in either order, and as on cold bases
    rules = generated(dropped, extra)
    lint_first, compose_first = RuleBase("generated", rules), RuleBase("generated", rules)
    report = lint_rulebase(lint_first)
    outcomes = sweep(lint_first)
    assert sweep(compose_first) == outcomes
    assert lint_rulebase(compose_first) == report == lint_rulebase(RuleBase("generated", rules))
    # one cold base per shape
    assert [outcome(lex, RuleBase("generated", rules)) for lex in shape_lexicons("v")] == outcomes


# -- every entry the constructors accept is on lint's grid --------------------


def typed(vector) -> tuple:
    """A feature vector with the type of each field: 1.0 is not LrefRole.MEDIAL here."""
    return tuple((type(field), field) for field in vector)


def linted_vectors() -> set:
    """The feature vectors lint_rulebase resolves, typed."""
    seen = set()

    def spy(features, base):
        seen.add(typed(features))
        return None, (), ()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rules_module, "resolve", spy)
        lint_rulebase(RuleBase("empty"))
    return seen


LINTED = linted_vectors()
# Raw values a hand-built field may take besides those equal to a valid one:
# non-members, labels, None, and a category or kind of the other kind.
OTHERS = (None, 1.5, -1, 5, "inside", "final", "yes", "CoPs", "pos")
# Every valid verb shape; a non-CoL verb six times in 27.
VALID_VERBS = [("CoL", *shape) for shape in VERB_SHAPES] + 2 * [
    (category, None, None, None) for category in VERB_CATEGORIES if category != "CoL"
]


def raw(value):
    """Values equal to value (itself, an equal int, float or bool), or one of OTHERS."""
    same = [value]
    if value is not None and not isinstance(value, str):
        same += [int(value), float(value)] + [bool(value)] * (int(value) in (0, 1))
    return st.sampled_from(OTHERS + tuple(same) * (12 * len(OTHERS) // len(same)))


def test_lint_resolves_the_30_completions():
    assert LINTED == {typed(features) for features in COMPLETIONS}


@settings(max_examples=50, deadline=None)
@given(
    verb_fields=st.sampled_from(VALID_VERBS).flatmap(lambda v: st.tuples(*map(raw, v))),
    prep_fields=st.sampled_from(PREP_ENTRIES).flatmap(lambda p: st.tuples(*map(raw, p[1:]))),
)
def test_every_entry_the_constructors_accept_composes_on_lints_grid(verb_fields, prep_fields):
    # each pair is refused at construction, or by compose as a non-CoL verb,
    # or composes to a vector lint resolves
    try:
        verb, prep = VerbEntry("v", *verb_fields), PrepEntry("p", *prep_fields)
    except IllFormedEntryError:
        return  # refused at construction
    lexicon = Lexicon("fr", {"v": verb}, {"p": prep})
    complex_ = MotionComplex("v", "p", "g", "m", "fr")
    try:
        derivation = compose(complex_, lexicon, RuleBase("cold", DEFAULT_RULES))
    except NotACoLVerbError:
        assert not verb.is_col
        return
    assert typed(derivation.features) in LINTED
    assert typed(compute_features(verb, prep)) == typed(derivation.features)


# Two bases lint passes, each with a hand-built preposition that lint's grid
# did not hold while the constructors took it, so compose raised a tie that
# lint could not see: a positional prep with a role (A/B), and a final prep
# without attained (C/E).  The constructors now refuse the first and make the
# second attained, so compose agrees with lint under both.
POS_WITH_A_ROLE = load(
    rule_line("A", "defeasible", 5, "prepkind=pos", "bind(post)")
    + rule_line("B", "defeasible", 5, "preprole=final", "bind(pre)")
    + rule_line("C", "defeasible", 1, "prepkind=dir", "bind(post)")
)
FINAL_WITHOUT_ATTAINED = load(
    rule_line("A", "defeasible", 5, "preprole=final,attained=yes", "bind(post)")
    + rule_line("B", "defeasible", 5, "preprole=final,attained=no", "bind(pre)")
    + rule_line("C", "defeasible", 1, "prepkind=dir", "bind(post)")
    + rule_line("E", "defeasible", 1, "preprole=final", "bind(pre)")
    + rule_line("D", "defeasible", 1, "prepkind=pos", "bind(post)")
)


def test_a_positional_prep_with_a_role_is_refused_as_lint_assumes():
    report, found = assert_lint_is_run_time(POS_WITH_A_ROLE)
    assert report.ok and all(seen == {None} for seen in found.values())
    with pytest.raises(IllFormedEntryError, match="^positional prep 'p' has a role$"):
        PrepEntry("p", "pos", Zone.INSIDE, LrefRole.FINAL)


def test_a_final_prep_built_without_attained_composes_as_lint_assumes():
    report, found = assert_lint_is_run_time(FINAL_WITHOUT_ATTAINED)
    assert report.ok and all(seen == {None} for seen in found.values())
    prep = PrepEntry("p", "dir", Zone.INSIDE, LrefRole.FINAL)
    assert prep.attained is True
    verb = VerbEntry("v", "CoL", LrefRole.FINAL, Zone.PROXIMAL, Zone.INSIDE)
    complex_ = MotionComplex("v", "p", "g", "m", "fr")
    lexicon = Lexicon("fr", {"v": verb}, {"p": prep})
    assert compose(complex_, lexicon, FINAL_WITHOUT_ATTAINED).fired.id == "A"
