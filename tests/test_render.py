"""explain(), render_records() and tuples() against the reference renderers.

explain() prints from cached layouts; tests/reference_render.py keeps the
renderers that built every line afresh.  Their output must agree byte
for byte on every shape, ground order, seed pair and hand-built trace.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_render as reference
from motionsem.compose import Defeat, MotionComplex, _plain_layout, compose, explain
from motionsem.errors import MotionSemError, _new
from motionsem.lexicon import default_lexicon
from motionsem.trace import (
    Provenance, SpatiotemporalTrace, ZoneAssignment, render_records, validate_trace,
)
from motionsem.zones import Phase, Zone
from shapes import MEMO_BASES, hand_built, shape_lexicons

RULES = MEMO_BASES["default"]
SEED_PAIR = compose(
    MotionComplex("sortir", "de", "maison", "mobile", "fr"), default_lexicon("fr"), RULES
)


def assert_renders_like_the_reference(derivation):
    assert explain(derivation) == reference.explain(derivation)
    assert render_records(derivation.trace) == reference.render_records(derivation.trace)
    assert derivation.trace.tuples() == reference.tuples(derivation.trace)


# g and a-ground-... sort before lref#v, zz after it; a-ground-... is longer
# than the "location" heading; lref#u, another verb's reference location
# name, is an ordinary ground (lref#v itself is refused by MotionComplex)
SHAPE_GROUNDS = ("g", "zz", "a-ground-longer-than-location", "lref#u")


@pytest.mark.parametrize("name", sorted(MEMO_BASES))
def test_every_shape_renders_like_the_reference(name):
    base = MEMO_BASES[name]
    rendered = 0
    for lex in shape_lexicons("v"):
        for ground in SHAPE_GROUNDS:
            try:
                derivation = compose(MotionComplex("v", "p", ground, "m", "fr"), lex, base)
            except MotionSemError:
                continue
            assert_renders_like_the_reference(derivation)
            rendered += 1
    assert rendered > 0


@pytest.mark.parametrize("language", ["fr", "en"])
def test_every_seed_pair_renders_like_the_reference(language):
    lexicon = default_lexicon(language)
    rendered = 0
    for verb in lexicon.verbs:
        grounds = ("g", "zz", "jardin", f"lref#{verb}s", "{0} 100%", "a ground name")
        for prep in lexicon.preps:
            for ground in grounds:
                complex_ = MotionComplex(verb, prep, ground, "mobile", language)
                try:
                    derivation = compose(complex_, lexicon, RULES)
                except MotionSemError:
                    continue
                assert_renders_like_the_reference(derivation)
                rendered += 1
    assert rendered > 0


def hand_built_variants(derivation):
    """Derivations no compose() call returns, each printed as the reference does."""
    trace = derivation.trace
    rows = trace.assignments
    third = rows[0]._replace(location="third")
    clash = rows[0]._replace(zone=Zone.DISTAL)
    traces = [
        trace._replace(lref=None),
        trace._replace(ground=None),
        trace._replace(lref=None, ground=None),
        trace._replace(assignments=rows + (third,)),
        trace._replace(assignments=rows[::-1]),
        trace._replace(assignments=rows + (clash,)),
        trace._replace(assignments=rows + rows[:1]),
        trace._replace(assignments=()),
        trace._replace(assignments=rows[:1]),  # the ground's row alone
        trace._replace(assignments=rows[1:]),  # the lref's rows alone
        trace._replace(ground=trace.lref),
        trace._replace(mobile="two\nlines"),
        trace._replace(mobile="{5} 100%s"),
        trace._replace(ground="tab\there", assignments=()),
        trace._replace(lref=None, ground="{1}", mobile="{0}"),
    ]
    defeats = [
        (),
        (Defeat("X", None, "conclusion inconsistent"), Defeat("Y", "X", "lower priority")),
        (Defeat("{0}", "%s", "100%"),),
        (Defeat("X\x006", "\x00a", "\x000 NUL"),),  # NUL starts explain's slot markers
    ]
    for variant in traces:
        for defeated in defeats:
            yield derivation._replace(trace=variant, defeated=defeated)
    yield derivation._replace(fired=hand_built(derivation.fired, id="R{1}", strength="{x}"))
    yield derivation._replace(fired=hand_built(derivation.fired, id="R\x006", strength="\0"))
    yield derivation._replace(complex=derivation.complex._replace(ground=5))


@pytest.mark.parametrize("verb", ["sortir", "entrer", "passer"])
def test_hand_built_derivations_render_like_the_reference(verb):
    fr = default_lexicon("fr")
    derivation = compose(MotionComplex(verb, "dans", "jardin", "mobile", "fr"), fr, RULES)
    for variant in hand_built_variants(derivation):
        assert_renders_like_the_reference(variant)


def test_names_that_break_lines_render_like_the_reference():
    fr = default_lexicon("fr")
    for ground in ("a\nb", "a\rb", "a\u2028b", "end\n", "\x85", "a b"):
        for mobile in ("m", "m\n", "m\x0bn", 7):
            complex_ = MotionComplex("sortir", "de", ground, mobile, "fr")
            assert_renders_like_the_reference(compose(complex_, fr, RULES))


@pytest.mark.parametrize("field", ["phase", "zone"])
def test_a_float_or_int_phase_or_zone_is_held_as_its_member(field):
    # 2.0 == Phase.POST, with the same hash.  A trace holds each row it is
    # given as a ZoneAssignment, which holds the member a value equals, so
    # float and int rows render like the members' rows, from the layout the
    # members' trace, explained first, left in the cache
    fr = default_lexicon("fr")
    derivation = compose(MotionComplex("sortir", "dans", "jardin", "m", "fr"), fr, RULES)
    explain(derivation)
    trace = derivation.trace
    index = ZoneAssignment._fields.index(field)
    for number in (float, int):
        rows = [(*a[:index], number(a[index]), *a[index + 1:]) for a in trace.assignments]
        held = derivation._replace(trace=trace._replace(assignments=rows))
        pairs = zip(held.trace.assignments, trace.assignments)
        assert all(type(a) is ZoneAssignment and a[index] is b[index] for a, b in pairs)
        assert_renders_like_the_reference(held)


def test_rows_built_past_their_check_are_checked_by_the_trace():
    # _new skips ZoneAssignment's check, so these rows hold a plain int phase;
    # the trace passes every row through ZoneAssignment._make, a
    # ZoneAssignment too, so render_records reads members as explain does
    fr = default_lexicon("fr")
    derivation = compose(MotionComplex("sortir", "dans", "jardin", "mobile", "fr"), fr, RULES)
    members = derivation.trace.assignments
    rows = [_new(ZoneAssignment, (a[0], int(a[1]), *a[2:])) for a in members]
    assert all(type(row[1]) is int for row in rows)
    trace = SpatiotemporalTrace(*derivation.trace[:3], rows)
    assert all(a[1] is b[1] for a, b in zip(trace.assignments, members))
    assert validate_trace(trace) == []
    assert_renders_like_the_reference(derivation._replace(trace=trace))


def test_fields_that_compare_equal_but_print_differently_print_as_themselves():
    fr = default_lexicon("fr")
    derivation = compose(MotionComplex("sortir", "de", "maison", "m", "fr"), fr, RULES)
    assert derivation.defeated
    fired, first = derivation.fired, derivation.defeated[0]
    variants = [
        derivation._replace(fired=hand_built(fired, priority=float(fired.priority))),
        derivation._replace(fired=hand_built(fired, priority=True)),
        derivation._replace(defeated=(first._replace(rule_id=1),)),
        derivation._replace(defeated=(first._replace(rule_id=1.0),)),
        derivation._replace(defeated=(first._replace(rule_id=True),)),
    ]
    texts = [explain(d) for d in [derivation, *variants]]
    assert len(set(texts)) == len(texts)
    for d, text in zip([derivation, *variants], texts):
        assert text == reference.explain(d)


def test_layout_cache_is_bounded_and_eviction_changes_no_text():
    fr = default_lexicon("fr")
    derivation = compose(MotionComplex("sortir", "dans", "jardin", "m", "fr"), fr, RULES)
    trace = derivation.trace
    _plain_layout.cache_clear()
    bound = _plain_layout.cache_info().maxsize
    assert bound == 1024
    rows = list(itertools.product(Phase, Zone, Provenance))
    variants = [  # one layout each: an lref row and a ground row, 1296 shapes
        derivation._replace(trace=trace._replace(assignments=(
            ZoneAssignment(trace.lref, *lref_row), ZoneAssignment(trace.ground, *ground_row)
        )))
        for lref_row, ground_row in itertools.product(rows, rows)
    ]
    assert len(variants) > bound
    texts = [explain(d) for d in variants]
    assert _plain_layout.cache_info().currsize == bound
    evicted = variants[:10]
    assert [explain(d) for d in evicted] == texts[:10]
    assert texts[:10] == [reference.explain(d) for d in evicted]


# names as compose() makes them first (printable text, which explain
# lays out from its cache), then ones only a hand-built trace holds
NAMES = st.sampled_from(
    ["m", "g", "zz", "a b", "{0}", "100%s", "\u00e9t\u00e9", "a\nb", "nul\0", None, 0, 7]
)
ROWS = st.tuples(
    st.sampled_from(tuple(Phase)),
    st.sampled_from(tuple(Zone)),
    st.sampled_from(tuple(Provenance)),
)
RULE_FIELDS = st.one_of(
    st.text("R {}%\0", max_size=3), st.none(), st.integers(), st.floats(), st.booleans()
)


@settings(max_examples=60, deadline=None)
@example(  # a plain trace but for its mobile, which is not a str
    mobile=7,
    lref="lref#sortir",
    ground="maison",
    lref_rows=[(Phase.PRE, Zone.INSIDE, Provenance.VERB)],
    ground_rows=[(Phase.POST, Zone.DISTAL, Provenance.PREP)],
    third=False,
    fired=("R", "defeasible", 1),
    defeated=[],
)
@given(
    mobile=NAMES,
    lref=NAMES,
    ground=NAMES,
    lref_rows=st.lists(ROWS, max_size=2),
    ground_rows=st.lists(ROWS, max_size=2),
    third=st.booleans(),
    fired=st.tuples(RULE_FIELDS, RULE_FIELDS, RULE_FIELDS),
    defeated=st.lists(st.builds(Defeat, RULE_FIELDS, RULE_FIELDS, RULE_FIELDS), max_size=3),
)
def test_hand_made_derivations_render_like_the_reference(
    mobile, lref, ground, lref_rows, ground_rows, third, fired, defeated
):
    # differential: any derivation, not only one compose() returns, renders
    # as the reference does or raises the same exception type; third puts
    # the last row at a location that is neither the lref nor the ground
    assignments = [ZoneAssignment(lref, *row) for row in lref_rows]
    assignments += [ZoneAssignment(ground, *row) for row in ground_rows]
    if third and assignments:
        assignments[-1] = assignments[-1]._replace(location="third")
    trace = SEED_PAIR.trace._replace(
        mobile=mobile, lref=lref, ground=ground, assignments=tuple(assignments)
    )
    rule_id, strength, priority = fired
    derivation = SEED_PAIR._replace(
        fired=hand_built(SEED_PAIR.fired, id=rule_id, strength=strength, priority=priority),
        defeated=tuple(defeated),
        trace=trace,
    )
    for render, oracle, value in [
        (explain, reference.explain, derivation),
        (render_records, reference.render_records, trace),
        (SpatiotemporalTrace.tuples, reference.tuples, trace),
    ]:
        assert outcome(render, value) == outcome(oracle, value)


def outcome(render, value):
    """What render gives for value: its text, or the type of what it raises."""
    try:
        return render(value)
    except Exception as exc:  # only the type is compared
        return type(exc)


SORTIR_DANS_JARDIN = """\
motion complex: sortir + dans + jardin  [fr]
mobile: mobile

fired rule: D2i (defeasible, priority 43)
defeated: none

bindings:
  reference location: lref#sortir (implicit)
  ground: jardin (bound at post)

zones:
  location     phase  zone      source
  jardin       post   inside    Interaction
  lref#sortir  pre    inside    Verb
  lref#sortir  post   proximal  Verb

records:
  mobile mobile
  lref lref#sortir
  ground jardin
  jardin post inside interaction
  lref#sortir pre inside verb
  lref#sortir post proximal verb"""

ENTRER_DANS_JARDIN = """\
motion complex: entrer + dans + jardin  [fr]
mobile: mobile

fired rule: D1 (defeasible, priority 50)
defeated: none

bindings:
  ground: jardin (identified with the reference location)

zones:
  location  phase  zone      source
  jardin    pre    proximal  Verb
  jardin    post   inside    Verb

records:
  mobile mobile
  lref jardin
  ground jardin
  jardin pre proximal verb
  jardin post inside verb"""


@pytest.mark.parametrize(
    "verb, expected", [("sortir", SORTIR_DANS_JARDIN), ("entrer", ENTRER_DANS_JARDIN)]
)
def test_explain_text_is_pinned(verb, expected):
    fr = default_lexicon("fr")
    complex_ = MotionComplex(verb, "dans", "jardin", "mobile", "fr")
    assert explain(compose(complex_, fr, RULES)) == expected
