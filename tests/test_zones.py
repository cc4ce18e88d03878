"""Zone algebra checks against an independent enumeration of the fixed order."""

from __future__ import annotations

import itertools
from collections.abc import Mapping

import pytest

from motionsem import trace, zones
from motionsem.corpus import parse_corpus
from motionsem.errors import FormatError, UnknownNameError, read_data_file, wire_name
from motionsem.lexicon import default_class_inventory, load_lexicon
from motionsem.rules import load_rulebase
from motionsem.trace import Provenance
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


@pytest.mark.parametrize(
    "enum", [Zone, Phase, LrefRole, Provenance], ids=lambda enum: enum.__name__
)
def test_every_label_round_trips(enum):
    for member in enum:
        assert enum.from_label(member.label) is member
        assert member.label == member.name.lower()
        assert enum.from_label(member.label.title()) is member
        assert enum.from_label(member.name) is member
    with pytest.raises(ValueError, match="unknown .* name: 'outside'"):
        enum.from_label("outside")


RULE = "VERSION\t1\nR\tx\tdefeasible\t1\tprepkind=dir\t{}\n"
CASE = "CASE a\nINPUT sortir dans jardin fr\nEXPECT jardin {}\nEND\n"
LOADERS = {
    ".lex": load_lexicon,
    ".txt": lambda source: default_class_inventory(),  # reads col_classes.txt
    ".rules": load_rulebase,
    ".corpus": parse_corpus,
}


@pytest.mark.parametrize(
    "name, text, line, message",
    [
        ("x.lex", "LANG\tfr\nP\tdans\tpos\tnowhere\n", 2, "zone name: 'nowhere'"),
        ("x.lex", "LANG\tfr\nP\tde\tdir\tup\tinside\n", 2, "role name: 'up'"),
        ("col_classes.txt", "inside\tdistal\nInside\tBogus\n", 2, "zone name: 'Bogus'"),
        ("x.rules", RULE.format("bind(later)"), 2, "phase name: 'later'"),
        ("x.rules", RULE.format("bind(post) zone=outside"), 2, "zone name: 'outside'"),
        ("x.rules", RULE.format("bind(post) prov=sky"), 2, "provenance name: 'sky'"),
        ("x.corpus", CASE.format("postt inside interaction"), 3, "phase name: 'postt'"),
        ("x.corpus", CASE.format("post insid interaction"), 3, "zone name: 'insid'"),
        ("x.corpus", CASE.format("post inside ground"), 3, "provenance name: 'ground'"),
    ],
    ids=["lex-zone", "lex-role", "inventory-zone", "rules-phase", "rules-zone"]
    + ["rules-prov", "corpus-phase", "corpus-zone", "corpus-prov"],
)
def test_an_unknown_name_reads_alike_in_every_file(
    bundled_data, name, text, line, message
):
    path = bundled_data / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(UnknownNameError) as info:
        LOADERS[path.suffix](read_data_file(path))
    assert str(info.value) == f"line {line}: unknown {message}"
    assert info.value.line == line
    assert isinstance(info.value, FormatError) and isinstance(info.value, ValueError)
    assert wire_name(info.value) == "FormatError"


def test_label_tables_are_read_only():
    tables = [zones.ZONE_LABELS, zones.PHASE_LABELS, zones.ROLE_LABELS]
    tables += [zones.ZONE_BY_NAME, zones.PHASE_BY_NAME, zones.ROLE_BY_NAME]
    tables += [trace.PROVENANCE_LABELS, trace.PROVENANCE_DISPLAY]
    for table in tables:
        key = next(iter(table)) if isinstance(table, Mapping) else 0
        with pytest.raises(TypeError):
            table[key] = "x"
    with pytest.raises(AttributeError):
        Zone.INSIDE.label = "x"
    assert Zone.INSIDE.label == "inside"


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
