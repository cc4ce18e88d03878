"""Zone algebra checks against an independent enumeration of the fixed order."""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest

from motionsem import trace
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
    # a label lives on its member alone; the display names are a read-only table
    for constants in (Zone, Phase, LrefRole, Provenance):
        for member in constants:
            with pytest.raises(AttributeError):
                member.label = "x"
            with pytest.raises(AttributeError):
                del member.label
            assert member.label == member.name.lower()
    assert Zone.INSIDE.label == "inside"
    with pytest.raises(TypeError):
        trace.PROVENANCE_DISPLAY[Provenance.VERB] = "x"
    assert trace.PROVENANCE_DISPLAY[Provenance.VERB] == "Verb"


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


# The contract of the four member classes: what the code and its callers rely
# on, whatever builds the classes.  Each class: its member names and values.
MEMBERS = {
    Zone: ("INSIDE CONTACT PROXIMAL DISTAL", (0, 1, 2, 3)),
    Phase: ("PRE DURING POST", (0, 1, 2)),
    LrefRole: ("INITIAL MEDIAL FINAL", (0, 1, 2)),
    Provenance: ("VERB PREP INTERACTION", ("verb", "prep", "interaction")),
}
CLASSES = pytest.mark.parametrize("cls", list(MEMBERS), ids=lambda cls: cls.__name__)
ORDERED = [Zone, Phase, LrefRole]


@CLASSES
def test_members_iterate_in_value_order_with_their_names_and_values(cls):
    names, values = MEMBERS[cls]
    members = [getattr(cls, name) for name in names.split()]
    assert list(cls) == members and len(cls) == len(members)
    assert [m.name for m in cls] == names.split()
    assert [m.value for m in cls] == list(values)
    assert all(type(m) is cls and type(m.value) is type(values[0]) for m in cls)
    assert list(cls.__members__.items()) == list(zip(names.split(), members))


@CLASSES
def test_calling_a_class_gives_the_one_member_of_a_value(cls):
    for member in cls:
        assert cls(member.value) is member
        assert cls(member) is member
        assert cls.__members__[member.name] is member
    assert Zone(2) is Zone.PROXIMAL and Zone(2.0) is Zone.PROXIMAL
    assert Provenance("prep") is Provenance.PREP


@pytest.mark.parametrize(
    "cls, value, message",
    [
        (Zone, 4, "4 is not a valid Zone"),
        (Zone, "inside", "'inside' is not a valid Zone"),
        (Phase, None, "None is not a valid Phase"),
        (LrefRole, [], "[] is not a valid LrefRole"),
        (Provenance, "VERB", "'VERB' is not a valid Provenance"),
        (Provenance, 0, "0 is not a valid Provenance"),
    ],
)
def test_a_value_that_names_no_member_is_a_value_error(cls, value, message):
    with pytest.raises(ValueError) as info:
        cls(value)
    assert str(info.value) == message


def test_member_reprs_and_strs_are_pinned():
    assert repr(Phase.POST) == "<Phase.POST: 2>"
    assert repr(Zone.INSIDE) == "<Zone.INSIDE: 0>"
    assert repr(LrefRole.MEDIAL) == "<LrefRole.MEDIAL: 1>"
    assert repr(Provenance.INTERACTION) == "<Provenance.INTERACTION: 'interaction'>"
    # an int member prints as its int, a provenance as its qualified name
    assert (str(Zone.DISTAL), f"{Phase.POST}", f"{LrefRole.FINAL:>3}") == ("3", "2", "  2")
    assert (str(Provenance.VERB), f"{Provenance.PREP}") == (
        "Provenance.VERB", "Provenance.PREP"
    )


@pytest.mark.parametrize("cls", ORDERED, ids=lambda cls: cls.__name__)
def test_ordered_members_are_their_ints(cls):
    for member in cls:
        value = member.value
        assert isinstance(member, int) and member == value and int(member) == value
        assert hash(member) == hash(value) and {value: member}[member] is member
        assert member + 1 == value + 1 and bool(member) == bool(value)
    assert sorted(cls, reverse=True) == list(cls)[::-1]


def test_a_provenance_is_only_itself():
    for member in Provenance:
        assert member != member.value and member.value != member
        assert not isinstance(member, str)
        assert hash(member) == object.__hash__(member)
        assert {member.value: 1}.get(member) is None
    assert len(set(Provenance)) == 3


@CLASSES
def test_members_pickle_and_copy_back_to_themselves(cls):
    for member in cls:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert member.__reduce_ex__(protocol) == (cls, (member.value,))
            assert pickle.loads(pickle.dumps(member, protocol)) is member
        assert copy.copy(member) is member and copy.deepcopy(member) is member
        nested = copy.deepcopy({"row": [member, (member,)]})
        assert nested["row"][0] is member and nested["row"][1][0] is member


@CLASSES
def test_members_and_tables_are_read_only(cls):
    member = next(iter(cls))
    for name in ("name", "value", "label"):
        with pytest.raises(AttributeError):
            setattr(member, name, "x")
        with pytest.raises(AttributeError):
            delattr(member, name)
    with pytest.raises(TypeError):
        cls.__members__["X"] = member
    assert member.name == MEMBERS[cls][0].split()[0]
