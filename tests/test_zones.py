"""Zone algebra checks against an independent enumeration of the fixed order."""

from __future__ import annotations

import itertools

import pytest

from motionsem.zones import (
    Zone,
    Phase,
    LrefRole,
    interpolate_zones,
    zone_distance,
)

# Independent oracle: the four zones in their fixed adjacency order.
ZONE_ORDER = ["inside", "contact", "proximal", "distal"]


def oracle_distance(a: Zone, b: Zone) -> int:
    return abs(ZONE_ORDER.index(a.label) - ZONE_ORDER.index(b.label))


def test_exactly_four_zones_in_fixed_order():
    assert [z.label for z in sorted(Zone)] == ZONE_ORDER


def test_zone_labels_round_trip():
    for z in Zone:
        assert Zone.from_label(z.label) is z
    with pytest.raises(ValueError):
        Zone.from_label("outside")


def test_phase_order_and_labels():
    assert [p.label for p in sorted(Phase)] == ["pre", "during", "post"]
    assert Phase.PRE < Phase.DURING < Phase.POST


def test_role_phase_bijection():
    seen = set()
    for role in LrefRole:
        seen.add(role.phase)
    assert seen == set(Phase)
    assert LrefRole.INITIAL.phase is Phase.PRE
    assert LrefRole.MEDIAL.phase is Phase.DURING
    assert LrefRole.FINAL.phase is Phase.POST


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (Zone.INSIDE, Zone.INSIDE, 0),
        (Zone.INSIDE, Zone.CONTACT, 1),
        (Zone.INSIDE, Zone.DISTAL, 3),
    ],
)
def test_zone_distance_examples(a, b, expected):
    assert oracle_distance(a, b) == expected  # oracle agrees with the frozen value
    assert zone_distance(a, b) == expected


def test_zone_distance_matches_oracle_everywhere():
    for a, b in itertools.product(Zone, Zone):
        assert zone_distance(a, b) == oracle_distance(a, b)


def test_zone_distance_is_a_metric():
    zones = list(Zone)
    for a, b, c in itertools.product(zones, zones, zones):
        d_ab = zone_distance(a, b)
        assert d_ab == zone_distance(b, a)
        assert (d_ab == 0) == (a is b)
        assert zone_distance(a, c) <= d_ab + zone_distance(b, c)


@pytest.mark.parametrize(
    "start, end, expected",
    [
        (Zone.INSIDE, Zone.DISTAL, [Zone.INSIDE, Zone.CONTACT, Zone.PROXIMAL, Zone.DISTAL]),
        (Zone.PROXIMAL, Zone.PROXIMAL, [Zone.PROXIMAL]),
        (Zone.CONTACT, Zone.INSIDE, [Zone.CONTACT, Zone.INSIDE]),
    ],
)
def test_interpolation_examples(start, end, expected):
    assert interpolate_zones(start, end) == expected


def test_interpolation_properties_all_pairs():
    for a, b in itertools.product(Zone, Zone):
        walk = interpolate_zones(a, b)
        assert walk[0] is a and walk[-1] is b
        assert len(walk) == zone_distance(a, b) + 1
        for x, y in zip(walk, walk[1:]):
            assert zone_distance(x, y) == 1
        assert list(reversed(walk)) == interpolate_zones(b, a)
