"""Trace validation and serialization."""

from __future__ import annotations

import itertools

from hypothesis import given, strategies as st

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
    # a zone that no member is, twice, is a duplicate too: no label is read
    twice = (ZoneAssignment("loc", Phase.POST, None, Provenance.VERB),) * 2
    trace = SpatiotemporalTrace(mobile="m", assignments=twice)
    assert validate_trace(trace) == [violation]


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
