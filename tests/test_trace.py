"""Trace validation and serialization."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from motionsem.errors import IllFormedEntryError
from motionsem.trace import (
    Provenance,
    SpatiotemporalTrace,
    ZoneAssignment,
    render_records,
    validate_trace,
)
from motionsem.zones import Phase, Zone, zone_distance

ZONES = list(Zone)


def trace_of(*assignments: tuple[str, Phase, Zone], mobile="m") -> SpatiotemporalTrace:
    return SpatiotemporalTrace(
        mobile=mobile,
        assignments=tuple(
            ZoneAssignment(loc, phase, zone, Provenance.VERB)
            for loc, phase, zone in assignments
        ),
    )


def test_empty_trace_is_ok():
    assert validate_trace(SpatiotemporalTrace(mobile="m")) == []


def test_missing_during_licenses_any_jump():
    trace = trace_of(("loc", Phase.PRE, Zone.INSIDE), ("loc", Phase.POST, Zone.PROXIMAL))
    assert validate_trace(trace) == []
    far = trace_of(("loc", Phase.PRE, Zone.INSIDE), ("loc", Phase.POST, Zone.DISTAL))
    assert validate_trace(far) == []


def test_defined_during_must_stay_adjacent():
    trace = trace_of(
        ("loc", Phase.PRE, Zone.INSIDE),
        ("loc", Phase.DURING, Zone.DISTAL),
        ("loc", Phase.POST, Zone.INSIDE),
    )
    violations = validate_trace(trace)
    assert len(violations) == 2  # pre->during and during->post both jump
    for v in violations:
        assert v.location == "loc"
        assert v.kind == "discontinuity"
        assert "skips" in v.message


def test_violation_names_location_and_phases():
    trace = trace_of(("garden", Phase.PRE, Zone.INSIDE), ("garden", Phase.DURING, Zone.PROXIMAL))
    (violation,) = validate_trace(trace)
    assert violation.location == "garden"
    assert violation.phases == (Phase.PRE, Phase.DURING)
    assert "garden" in str(violation)


def test_conflicting_assignment_in_one_phase():
    trace = SpatiotemporalTrace(
        mobile="m",
        assignments=(
            ZoneAssignment("loc", Phase.POST, Zone.INSIDE, Provenance.VERB),
            ZoneAssignment("loc", Phase.POST, Zone.CONTACT, Provenance.PREP),
        ),
    )
    (violation,) = validate_trace(trace)
    assert violation.kind == "conflict"
    message = "two zones assigned in one phase (inside vs contact)"
    assert violation == ("loc", (Phase.POST,), "conflict", message)


def test_duplicate_assignment_is_flagged():
    trace = SpatiotemporalTrace(
        mobile="m",
        assignments=(
            ZoneAssignment("loc", Phase.POST, Zone.INSIDE, Provenance.VERB),
            ZoneAssignment("loc", Phase.POST, Zone.INSIDE, Provenance.PREP),
        ),
    )
    (violation,) = validate_trace(trace)
    assert violation.kind == "conflict"
    assert violation == ("loc", (Phase.POST,), "conflict", "duplicate assignment for this phase")
    # a zone that no member is: the trace refuses the row, as ZoneAssignment does
    row = ("loc", Phase.POST, None, Provenance.VERB)
    message = "^'loc' has zone None, equal to no member$"
    with pytest.raises(IllFormedEntryError, match=message):
        ZoneAssignment(*row)
    with pytest.raises(IllFormedEntryError, match=message):
        SpatiotemporalTrace(mobile="m", assignments=(row, row))


def test_locations_are_independent():
    trace = trace_of(
        ("a", Phase.PRE, Zone.INSIDE),
        ("a", Phase.DURING, Zone.CONTACT),
        ("b", Phase.DURING, Zone.DISTAL),
    )
    assert validate_trace(trace) == []


def test_exhaustive_consecutive_pairs():
    # every defined consecutive pair with distance > 1 must be rejected,
    # every pair with distance <= 1 accepted
    for slot in ((Phase.PRE, Phase.DURING), (Phase.DURING, Phase.POST)):
        for a, b in itertools.product(ZONES, ZONES):
            trace = trace_of(("loc", slot[0], a), ("loc", slot[1], b))
            violations = validate_trace(trace)
            if zone_distance(a, b) > 1:
                assert violations, (slot, a, b)
            else:
                assert violations == [], (slot, a, b)


@given(data=st.data())
def test_stepwise_built_traces_validate(data):
    # walks built step by step along the adjacency order are always accepted
    pre = data.draw(st.sampled_from(ZONES))
    during = data.draw(st.sampled_from([z for z in ZONES if zone_distance(pre, z) <= 1]))
    post = data.draw(st.sampled_from([z for z in ZONES if zone_distance(during, z) <= 1]))
    trace = trace_of(
        ("loc", Phase.PRE, pre),
        ("loc", Phase.DURING, during),
        ("loc", Phase.POST, post),
    )
    assert validate_trace(trace) == []


@given(data=st.data())
def test_big_jumps_in_defined_pairs_rejected(data):
    a = data.draw(st.sampled_from(ZONES))
    b = data.draw(st.sampled_from([z for z in ZONES if zone_distance(a, z) > 1]))
    slot = data.draw(st.sampled_from([(Phase.PRE, Phase.DURING), (Phase.DURING, Phase.POST)]))
    trace = trace_of(("loc", slot[0], a), ("loc", slot[1], b))
    assert validate_trace(trace)


def test_render_records_is_canonical():
    trace = SpatiotemporalTrace(
        mobile="mobile",
        lref="lref#sortir",
        ground="jardin",
        assignments=(
            ZoneAssignment("lref#sortir", Phase.POST, Zone.PROXIMAL, Provenance.VERB),
            ZoneAssignment("jardin", Phase.POST, Zone.INSIDE, Provenance.INTERACTION),
            ZoneAssignment("lref#sortir", Phase.PRE, Zone.INSIDE, Provenance.VERB),
        ),
    )
    assert render_records(trace) == (
        "mobile mobile\n"
        "lref lref#sortir\n"
        "ground jardin\n"
        "jardin post inside interaction\n"
        "lref#sortir pre inside verb\n"
        "lref#sortir post proximal verb"
    )


def test_tuples_sorted_by_location_then_phase():
    trace = trace_of(
        ("b", Phase.POST, Zone.INSIDE),
        ("a", Phase.POST, Zone.INSIDE),
        ("b", Phase.PRE, Zone.CONTACT),
    )
    assert [t[0:2] for t in trace.tuples()] == [
        ("a", "post"),
        ("b", "pre"),
        ("b", "post"),
    ]


def test_provenance_labels():
    assert Provenance.VERB.label == "verb"
    assert Provenance.PREP.label == "prep"
    assert Provenance.INTERACTION.label == "interaction"
    assert Provenance.from_label("interaction") is Provenance.INTERACTION


def member_equal_to(value, constants):
    """The member of constants that value equals (a provenance may be its value), or None."""
    for member in constants:
        if value == member or (constants is Provenance and value == member.value):
            return member
    return None


_ROW_VALUES = st.one_of(
    st.sampled_from([*Phase, *Zone, *Provenance, *(p.value for p in Provenance)]),
    st.sampled_from([2.0, 1.5, True, -1, 3, 4, "post", "inside", "Verb", "INTERACTION", None]),
    st.integers(-3, 6),
    st.floats(),
    st.text(max_size=3),
)


@settings(max_examples=60, deadline=None)
@given(phase=_ROW_VALUES, zone=_ROW_VALUES, provenance=_ROW_VALUES)
@example(phase=2.0, zone=0, provenance="verb")
@example(phase=Phase.POST, zone="inside", provenance=Provenance.VERB)
@example(phase=Phase.PRE, zone=Zone.CONTACT, provenance="Verb")
def test_the_constructor_accepts_exactly_the_values_that_equal_a_member(
    phase, zone, provenance
):
    # a row holds the member each value equals, and renders with its label;
    # the first value that equals no member is refused, naming its field
    given_row = ("g", phase, zone, provenance)
    expected = [
        member_equal_to(value, constants)
        for value, constants in zip(given_row[1:], (Phase, Zone, Provenance))
    ]
    if None in expected:
        index = expected.index(None) + 1
        field = ZoneAssignment._fields[index]
        message = f"'g' has {field} {given_row[index]!r}, equal to no member"
        with pytest.raises(IllFormedEntryError) as info:
            ZoneAssignment(*given_row)
        assert str(info.value) == message
        return
    row = ZoneAssignment(*given_row)
    assert all(held is member for held, member in zip(row[1:], expected))
    labels = " ".join(member.label for member in expected)
    trace = SpatiotemporalTrace("m", None, None, (row,))
    assert render_records(trace) == f"mobile m\ng {labels}"
    assert trace.tuples() == (("g", *labels.split()),)


# Each way to build a trace from its rows; _make and _replace call the class.
TRACE_BUILDS = {
    "call": lambda rows: SpatiotemporalTrace("m", "l", "g", rows),
    "make": lambda rows: SpatiotemporalTrace._make(("m", "l", "g", rows)),
    "replace": lambda rows: SpatiotemporalTrace("m", "l", "g")._replace(assignments=rows),
}


def test_a_trace_refuses_a_row_that_no_member_equals():
    # this trace once rendered as "g post distal verb", and its tuples() raised
    rows = (("g", -1, -1, Provenance.VERB),)
    for build in TRACE_BUILDS.values():
        with pytest.raises(IllFormedEntryError, match="^'g' has phase -1, equal to no member$"):
            build(rows)


def held_as(rows):
    """The rows as ZoneAssignment holds them, or what it raises for the first it refuses."""
    try:
        return tuple([ZoneAssignment(*row) for row in rows])
    except (TypeError, IllFormedEntryError) as exc:
        return exc


_ODD = st.one_of(
    st.sampled_from([-1, 4, None, 1.5, "post", "Verb"]),
    st.integers(-2, 5),
    st.floats(),
    st.text(max_size=2),
)


def _field(*values):
    """A row field: a value that equals a member (the member itself, or its
    number or text), or any value."""
    return st.one_of(st.sampled_from(values), _ODD)


_TRACE_ROWS = st.one_of(
    st.builds(
        ZoneAssignment, st.sampled_from("gl"),
        *(st.sampled_from(tuple(members)) for members in (Phase, Zone, Provenance)),
    ),
    st.tuples(
        st.sampled_from("gl"),
        _field(*Phase, 0, 2.0, True),
        _field(*Zone, 3, 1.0),
        _field(*Provenance, "verb", "interaction"),
    ),
)
_SHORT_OR_LONG_ROWS = st.one_of(
    st.tuples(_ODD, _ODD, _ODD), st.tuples(_ODD, _ODD, _ODD, _ODD, _ODD)
)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(_TRACE_ROWS, max_size=3),
    add=st.booleans(),
    short_or_long=_SHORT_OR_LONG_ROWS,
    as_list=st.booleans(),
)
@example(rows=[("g", -1, -1, Provenance.VERB)], add=False, short_or_long=(), as_list=False)
@example(
    rows=[("g", 2.0, 0, "verb"), ("l", 0, 1.0, "prep")], add=False, short_or_long=(),
    as_list=True,
)
def test_a_trace_holds_exactly_the_rows_zone_assignment_takes(
    rows, add, short_or_long, as_list
):
    # by a call, _make or _replace, a trace raises what ZoneAssignment raises
    # for the first row it refuses, or holds the tuple of the rows it holds,
    # which every reader of a trace takes; add puts a row of 3 or 5 fields last
    if add:
        rows.append(short_or_long)
    expected = held_as(rows)
    for build in TRACE_BUILDS.values():
        given_rows = list(rows) if as_list else tuple(rows)
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as info:
                build(given_rows)
            if isinstance(expected, IllFormedEntryError):
                assert str(info.value) == str(expected)
            continue
        trace = build(given_rows)
        assert type(trace.assignments) is tuple and trace.assignments == expected
        for held, row in zip(trace.assignments, expected):
            assert type(held) is ZoneAssignment
            assert all(a is b for a, b in zip(held, row))
        hash(trace)
        render_records(trace)
        trace.tuples()
        validate_trace(trace)
