"""Lexicon loading, validation, classification, and round-trips."""

from __future__ import annotations

import io

import pytest
from hypothesis import example, given, settings, strategies as st

from motionsem import lexicon as lexicon_module
from motionsem.errors import (
    WHITESPACE,
    DuplicateLemmaError,
    FormatError,
    IllFormedEntryError,
    NotACoLVerbError,
    UnknownLanguageError,
    UnknownLemmaError,
    UnknownNameError,
    UnlexicalizedClassError,
)
from motionsem.lexicon import (
    PREP_SHAPES,
    Lexicon,
    PrepEntry,
    VerbEntry,
    classify_verb,
    default_class_inventory,
    default_lexicon,
    dump_lexicon,
    load_lexicon,
    lookup_prep,
    lookup_verb,
    verb_shapes,
)
from motionsem.zones import LrefRole, Zone
from shapes import PREP_ENTRIES, VERB_SHAPES, VERB_TRIPLES


def load(text: str) -> Lexicon:
    return load_lexicon(io.StringIO(text))


def test_single_verb_line():
    lex = load("LANG\tfr\nV\tsortir\tCoL\tinitial\tinside\tproximal\n")
    assert len(lex.verbs) == 1 and not lex.preps
    entry = lex.verbs["sortir"]
    assert entry.category == "CoL"
    assert entry.lref_role is LrefRole.INITIAL
    assert entry.start_zone is Zone.INSIDE
    assert entry.end_zone is Zone.PROXIMAL


def test_lang_header_sets_language():
    lex = load("LANG\tfr\nP\tdans\tpos\tinside\n")
    assert lex.language == "fr"
    assert lex.preps["dans"] == PrepEntry("dans", "pos", Zone.INSIDE)


def test_lang_header_conflict(bundled_data):
    (bundled_data / "fr.lex").write_text("LANG\ten\n", encoding="utf-8")
    with pytest.raises(IllFormedEntryError, match="^fr.lex is tagged 'en', not 'fr'$"):
        default_lexicon("fr")


@pytest.mark.parametrize("tag", ["de", "../fr"])
def test_default_lexicon_rejects_a_tag_it_does_not_ship(tag):
    with pytest.raises(UnknownLanguageError, match=f"^no bundled lexicon for '{tag}'$"):
        default_lexicon(tag)


def test_no_language_anywhere():
    with pytest.raises(IllFormedEntryError):
        load("P\tdans\tpos\tinside\n")
    with pytest.raises(IllFormedEntryError, match="^lexicon has no LANG header$"):
        load("# no entries\n")


def test_duplicate_lemma():
    text = "LANG\tfr\nP\tdans\tpos\tinside\nP\tdans\tpos\tcontact\n"
    with pytest.raises(DuplicateLemmaError) as err:
        load(text)
    assert err.value.line == 3


def test_unknown_zone_name():
    with pytest.raises(UnknownNameError) as err:
        load("LANG\tfr\nP\tdehors\tpos\toutside\n")
    assert err.value.line == 2


def test_missing_fields():
    with pytest.raises(IllFormedEntryError):
        load("LANG\tfr\nV\tsortir\tCoL\tinitial\tinside\n")  # no end zone
    with pytest.raises(IllFormedEntryError):
        load("LANG\tfr\nV\tsortir\n")
    with pytest.raises(IllFormedEntryError):
        load("LANG\tfr\nP\tdans\tpos\n")


def test_non_col_verbs_reject_zone_fields():
    with pytest.raises(IllFormedEntryError):
        load("LANG\tfr\nV\tcourir\tICoPs\tinitial\tinside\tproximal\n")
    lex = load("LANG\tfr\nV\tcourir\tICoPs\tgloss=to run\n")
    entry = lex.verbs["courir"]
    assert entry.start_zone is None and entry.lref_role is None
    assert entry.gloss == "to run"


@pytest.mark.parametrize(
    "spelling, error",
    [
        ("gloss=to run", None), (" gloss=to run", None), ("gloss=to run ", None),
        ("gloss=to run\r", None),
        # stripped of ASCII whitespace only, the field does not start with gloss=
        ("\u00a0gloss=to run\u00a0", "ICoPs verb 'courir' must not carry zone fields"),
    ],
    ids=["plain", "leading-space", "trailing-space", "carriage-return", "no-break-spaces"],
)
def test_a_gloss_is_read_from_the_stripped_last_field(spelling, error):
    text = (
        f"LANG\tfr\nV\tcourir\tICoPs\t{spelling}\nV\tfuir\tICoPs\n"
        f"V\tsortir\tCoL\tinitial\tinside\tproximal\t{spelling}\n"
    )
    if error is not None:
        with pytest.raises(IllFormedEntryError) as err:
            load(text)
        assert str(err.value) == f"line 2: {error}"
        return
    lex = load(text)
    assert lex.verbs["courir"] == VerbEntry("courir", "ICoPs", gloss="to run")
    assert lex.verbs["fuir"] == VerbEntry("fuir", "ICoPs")  # the same shape, no gloss
    assert lex.verbs["sortir"].gloss == "to run"


def test_a_lemma_keeps_a_no_break_space_at_its_edge():
    # a lemma is cut only at ASCII whitespace, as query and the corpus cut names
    lex = load("LANG\tfr\nV\tsortir\u00a0\tCoL\tinitial\tinside\tproximal\n"
               "P\t dans \tpos\tinside\n")
    assert list(lex.verbs) == ["sortir\u00a0"] and list(lex.preps) == ["dans"]
    assert lex.verbs["sortir\u00a0"].lemma == "sortir\u00a0"
    with pytest.raises(IllFormedEntryError) as err:
        load("LANG\tfr\nV\t\u00a0\u2003\tCoPs\n")
    assert str(err.value) == "line 2: bad lemma '\\xa0\\u2003'"


def test_unlexicalized_class_rejected():
    # contact -> distal is not in the shipped inventory
    with pytest.raises(UnlexicalizedClassError) as err:
        load("LANG\tfr\nV\tbizarre\tCoL\tinitial\tcontact\tdistal\n")
    assert err.value.line == 2


def test_medial_verbs_must_use_path_encoding():
    with pytest.raises(UnlexicalizedClassError):
        load("LANG\tfr\nV\tpasser\tCoL\tmedial\tproximal\tproximal\n")
    lex = load("LANG\tfr\nV\tpasser\tCoL\tmedial\tcontact\tcontact\n")
    assert lex.verbs["passer"].start_zone is Zone.CONTACT


def lexicalized(role: LrefRole, start: Zone, end: Zone) -> bool:
    """Whether a CoL verb may take this triple: a medial verb the fixed path
    encoding contact->contact, an initial or final one a pair of the class
    inventory (the oracle of verb_shapes)."""
    if role is LrefRole.MEDIAL:
        return (start, end) == (Zone.CONTACT, Zone.CONTACT)
    return (start, end) in default_class_inventory()


def test_verb_shapes_are_the_lexicalized_triples_in_order():
    assert verb_shapes() == tuple(t for t in VERB_TRIPLES if lexicalized(*t))
    assert len(verb_shapes()) == 21
    for shape in verb_shapes():
        assert VerbEntry("v", "CoL", *shape)[2:5] == shape


def test_verb_shapes_follow_an_edited_class_inventory(bundled_data):
    # cached per inventory: an inventory cleared and read again is honoured
    assert (LrefRole.INITIAL, Zone.INSIDE, Zone.CONTACT) in verb_shapes()
    inventory = bundled_data / "col_classes.txt"
    lines = inventory.read_text(encoding="utf-8").splitlines()
    lines.remove("inside\tcontact")
    inventory.write_text("\n".join(lines + ["inside\tinside", ""]), encoding="utf-8")
    default_class_inventory.cache_clear()
    shapes = verb_shapes()
    assert shapes == tuple(t for t in VERB_TRIPLES if lexicalized(*t)) and len(shapes) == 21
    assert (LrefRole.FINAL, Zone.INSIDE, Zone.INSIDE) in shapes
    assert (LrefRole.FINAL, Zone.INSIDE, Zone.CONTACT) not in shapes
    VerbEntry("v", "CoL", LrefRole.FINAL, Zone.INSIDE, Zone.INSIDE)
    with pytest.raises(UnlexicalizedClassError):
        VerbEntry("v", "CoL", LrefRole.FINAL, Zone.INSIDE, Zone.CONTACT)


def test_prep_shapes_are_the_entries_prep_entry_takes_in_order():
    entries = [PrepEntry("p", "pos", zone) for zone in Zone] + [
        PrepEntry("p", "dir", zone, role=role, attained=attained)
        for zone in Zone
        for role in LrefRole
        for attained in ((True, False) if role is LrefRole.FINAL else (None,))
    ]
    assert PREP_SHAPES == tuple(tuple(entry[1:]) for entry in entries)
    assert len(PREP_SHAPES) == 20 and PREP_ENTRIES == entries


def test_positional_prep_rejects_role_and_attained():
    with pytest.raises(IllFormedEntryError):
        load("LANG\tfr\nP\tdans\tpos\tfinal\tinside\n")
    with pytest.raises(IllFormedEntryError):
        load("LANG\tfr\nP\tdans\tpos\tinside\tattained=true\n")


def test_attained_only_on_directional_final():
    with pytest.raises(IllFormedEntryError):
        load("LANG\tfr\nP\tde\tdir\tinitial\tinside\tattained=true\n")
    lex = load("LANG\tfr\nP\tvers\tdir\tfinal\tinside\tattained=false\n")
    assert lex.preps["vers"].attained is False


def test_attained_defaults_true_on_final():
    lex = load("LANG\tfr\nP\tà\tdir\tfinal\tinside\n")
    assert lex.preps["à"].attained is True


@pytest.mark.parametrize(
    "entry, message",
    [
        ("P\tvers\tdir\tfinal\tinside\tattained=maybe", "bad attained value 'maybe'"),
        ("P\tde\tdir\tinside", "directional prep needs <role> <zone>"),
    ],
    ids=["attained", "no-role"],
)
def test_a_malformed_directional_prep_names_its_line(entry, message):
    with pytest.raises(IllFormedEntryError) as err:
        load(f"LANG\tfr\n{entry}\n")
    assert str(err.value) == f"line 2: {message}" and err.value.line == 2


def test_effective_zone_weakens_unattained():
    lex = load(
        "LANG\tfr\nP\tvers\tdir\tfinal\tinside\tattained=false\n"
        "P\tjusqu'à\tdir\tfinal\tcontact\tattained=true\n"
    )
    assert lex.preps["vers"].effective_zone is Zone.PROXIMAL
    assert lex.preps["jusqu'à"].effective_zone is Zone.CONTACT


def test_comments_and_blank_lines_ignored():
    lex = load("# header\n\nLANG\tfr\n# entry follows\nP\tdans\tpos\tinside\n")
    assert list(lex.preps) == ["dans"]


def test_default_class_inventory_has_ten_pairs():
    inventory = default_class_inventory()
    assert len(inventory) == 10
    assert (Zone.INSIDE, Zone.PROXIMAL) in inventory
    assert (Zone.INSIDE, Zone.DISTAL) in inventory
    assert (Zone.PROXIMAL, Zone.CONTACT) in inventory
    # identity pairs are never lexicalized outside the medial encoding
    assert all(start is not end for start, end in inventory)


def break_the_inventory(data) -> None:
    """Make line 16 of the bundled copy's col_classes.txt name an unknown zone."""
    inventory = data / "col_classes.txt"
    lines = inventory.read_text(encoding="utf-8").splitlines()[:15]
    inventory.write_text("\n".join(lines + ["inside\tbogus", ""]), encoding="utf-8")


def test_an_inventory_error_names_its_own_line(bundled_data):
    break_the_inventory(bundled_data)
    # the inventory is first read while line 2 of the lexicon is parsed
    lexicon = ["LANG\tfr\n", "V\tentrer\tCoL\tfinal\tproximal\tinside\n"]
    with pytest.raises(UnknownNameError) as info:
        load_lexicon(lexicon)
    assert str(info.value) == "line 16: unknown zone name: 'bogus'"
    assert info.value.line == 16


@pytest.mark.parametrize(
    "entry", ["P\tdans\tpos\tinside", "V\tcourir\tICoPs"], ids=["prep", "other-verb"]
)
def test_a_lexicon_without_a_col_verb_reads_the_inventory_too(bundled_data, entry):
    break_the_inventory(bundled_data)
    # the first entry reads the inventory, which keys the shape memo
    with pytest.raises(UnknownNameError) as info:
        load_lexicon(["LANG\tfr\n", entry])
    assert str(info.value) == "line 16: unknown zone name: 'bogus'"
    assert info.value.line == 16


def test_an_inventory_comment_after_a_no_break_space_is_data(bundled_data):
    (bundled_data / "col_classes.txt").write_text("\u00a0# note\n", encoding="utf-8")
    with pytest.raises(UnknownNameError) as info:
        default_class_inventory()
    assert str(info.value) == "line 1: unknown zone name: '\\xa0#'"


def test_a_changed_inventory_gets_a_new_shape_memo(bundled_data):
    assert default_lexicon("fr").verbs["sortir"].start_zone is Zone.INSIDE
    inventory = bundled_data / "col_classes.txt"
    text = inventory.read_text(encoding="utf-8")
    inventory.write_text(text.replace("inside\tproximal\n", ""), encoding="utf-8")
    default_class_inventory.cache_clear()
    with pytest.raises(UnlexicalizedClassError) as info:
        default_lexicon("fr")  # the same line 8 that loaded a moment ago
    assert str(info.value) == (
        "line 8: zone pair inside→proximal of 'sortir' is not a lexicalized class"
    )


def test_an_inventory_switched_back_loads_its_verbs_again(bundled_data):
    loaded = default_lexicon("fr")
    inventory = bundled_data / "col_classes.txt"
    text = inventory.read_text(encoding="utf-8")
    inventory.write_text(text.replace("inside\tproximal\n", ""), encoding="utf-8")
    default_class_inventory.cache_clear()
    with pytest.raises(UnlexicalizedClassError, match="'sortir' is not a lexicalized"):
        default_lexicon("fr")
    inventory.write_text(text, encoding="utf-8")
    default_class_inventory.cache_clear()
    assert default_lexicon("fr").verbs["sortir"] == loaded.verbs["sortir"]
    assert default_lexicon("fr") == loaded


def test_the_valid_shapes_in_lowercase_spelling_number_48(monkeypatch):
    # every tag and tail in lowercase labels, each loaded into an emptied memo,
    # which keeps no refused one: 24 verb tails (21 CoL and the 3 other
    # categories) and 24 preposition tails (a final one with and without attained)
    monkeypatch.setattr(lexicon_module, "_SHAPES", {})
    tails = [
        f"V\tv\tCoL\t{role.label}\t{start.label}\t{end.label}"
        for role, start, end in VERB_TRIPLES
    ] + [f"V\tv\t{category}" for category in ("CoPs", "ICoPs", "CoPtu")] + [
        f"P\tp\t{kind}{role}\t{zone.label}{attained}"
        for kind in ("pos", "dir")
        for role in ("", *(f"\t{role.label}" for role in LrefRole))
        for zone in Zone
        for attained in ("", "\tattained=true", "\tattained=false")
    ]
    loaded = []
    for tail in tails:
        try:
            lexicon = load(f"LANG\tfr\n{tail}\n")
        except FormatError:
            continue
        loaded += [*lexicon.verbs.values(), *lexicon.preps.values()]
    assert len(lexicon_module._SHAPES) == len(loaded) == 48
    verbs = [tuple(entry[2:5]) for entry in loaded if isinstance(entry, VerbEntry)]
    assert verbs == VERB_SHAPES + 3 * [(None, None, None)]
    preps = {entry._replace(lemma="p") for entry in loaded if isinstance(entry, PrepEntry)}
    assert preps == set(PREP_ENTRIES)


def test_a_flood_of_tail_spellings_keeps_the_shape_memo_bounded():
    bound = lexicon_module._SHAPE_BOUND
    lines = ["LANG\tfr"] + [
        f"P\tp{i}\tpos\t{' ' * (i % 40)}inside{' ' * (i // 40)}" for i in range(2 * bound)
    ]
    lex = load("\n".join(lines))
    assert list(lex.preps.values()) == [
        PrepEntry(f"p{i}", "pos", Zone.INSIDE) for i in range(2 * bound)
    ]
    memo = lexicon_module._SHAPES
    assert 0 < len(memo) <= bound


@pytest.mark.parametrize(
    "lemma, expected",
    [
        ("sortir", "inside→proximal"),
        ("partir", "inside→distal"),
        ("atterrir", "proximal→contact"),
    ],
)
def test_classify_verb_examples(lemma, expected):
    lex = default_lexicon("fr")
    assert classify_verb(lex.verbs[lemma]) == expected


def test_classify_verb_is_pure_in_the_zone_pair():
    a = VerbEntry("x", "CoL", LrefRole.INITIAL, Zone.INSIDE, Zone.PROXIMAL)
    b = VerbEntry("y", "CoL", LrefRole.FINAL, Zone.INSIDE, Zone.PROXIMAL)
    assert classify_verb(a) == classify_verb(b)


def test_classify_verb_rejects_non_col():
    entry = VerbEntry("voyager", "CoPs")
    with pytest.raises(NotACoLVerbError):
        classify_verb(entry)


def test_class_identifiers_are_distinct_per_pair():
    inventory = default_class_inventory()
    ids = {
        classify_verb(VerbEntry("x", "CoL", LrefRole.INITIAL, start, end))
        for start, end in inventory
    }
    assert len(ids) == len(inventory) == 10


def test_verb_and_prep_namespaces_are_separate():
    lex = load(
        "LANG\tfr\nV\tpasser\tCoL\tmedial\tcontact\tcontact\nP\tpasser\tpos\tinside\n"
    )
    assert "passer" in lex.verbs and "passer" in lex.preps


def test_lookups():
    fr = default_lexicon("fr")
    en = default_lexicon("en")
    assert lookup_verb(fr, "sortir").lemma == "sortir"
    assert lookup_prep(en, "into").kind == "dir"
    with pytest.raises(UnknownLemmaError):
        lookup_verb(fr, "zzz")
    with pytest.raises(UnknownLemmaError):
        lookup_prep(fr, "zzz")


def test_seed_lexicons_cover_required_lemmas():
    fr = default_lexicon("fr")
    required_verbs = [
        "sortir", "partir", "entrer", "atterrir", "arriver", "s'approcher",
        "passer", "traverser", "voyager", "courir", "s'asseoir", "se baisser",
    ]
    for lemma in required_verbs:
        assert lemma in fr.verbs, lemma
    assert fr.verbs["voyager"].category == "CoPs"
    assert fr.verbs["courir"].category == "ICoPs"
    assert fr.verbs["s'asseoir"].category == "CoPtu"
    assert fr.verbs["se baisser"].category == "CoPtu"
    assert "dans" in fr.preps
    en = default_lexicon("en")
    for lemma in ("into", "from", "through", "to"):
        assert lemma in en.preps, lemma


def test_seed_round_trip():
    for lang in ("fr", "en"):
        lex = default_lexicon(lang)
        again = load(dump_lexicon(lex))
        assert again == lex


@pytest.mark.parametrize(
    "fields",
    [(None, Zone.INSIDE, Zone.PROXIMAL), (LrefRole.INITIAL, Zone.INSIDE, None)],
    ids=["no-role", "no-end"],
)
def test_a_col_entry_without_its_role_or_zones_never_reaches_dump(fields):
    # the constructor refuses it, so no lexicon holds one for dump_lexicon
    with pytest.raises(IllFormedEntryError, match="^CoL entry 'x' lacks zone constraints$"):
        VerbEntry("x", "CoL", *fields)
    whole = VerbEntry("x", "CoL", LrefRole.INITIAL, Zone.INSIDE, Zone.PROXIMAL)
    with pytest.raises(IllFormedEntryError, match="^CoL entry 'x' lacks zone constraints$"):
        whole._replace(**dict(zip(whole._fields[2:5], fields)))


# Each refusal of the entry constructors: the class, the fields, the message.
REFUSALS = {
    "verb-category": (
        VerbEntry, ("v", "col", None, None, None, None), "unknown verb category 'col'"
    ),
    "verb-zones-off-col": (
        VerbEntry, ("v", "CoPs", None, Zone.INSIDE, None, None),
        "CoPs verb 'v' must not carry zone fields",
    ),
    "verb-no-zones": (
        VerbEntry, ("v", "CoL", LrefRole.INITIAL, Zone.INSIDE, None, None),
        "CoL entry 'v' lacks zone constraints",
    ),
    "verb-role": (
        VerbEntry, ("v", "CoL", 1.5, Zone.INSIDE, Zone.CONTACT, None),
        "'v' has lref_role 1.5, equal to no member",
    ),
    "verb-zone": (
        VerbEntry, ("v", "CoL", LrefRole.FINAL, Zone.INSIDE, "contact", None),
        "'v' has end_zone 'contact', equal to no member",
    ),
    "prep-kind": (
        PrepEntry, ("p", "Dir", Zone.INSIDE, LrefRole.FINAL, True),
        "unknown preposition kind 'Dir'",
    ),
    "prep-zone": (
        PrepEntry, ("p", "pos", None, None, None), "'p' has zone None, equal to no member"
    ),
    "pos-role": (
        PrepEntry, ("p", "pos", Zone.INSIDE, LrefRole.FINAL, None),
        "positional prep 'p' has a role",
    ),
    "pos-attained": (
        PrepEntry, ("p", "pos", Zone.INSIDE, None, False),
        "positional prep cannot carry attained",
    ),
    "dir-no-role": (
        PrepEntry, ("p", "dir", Zone.INSIDE, None, None),
        "directional prep 'p' lacks a role",
    ),
    "dir-role": (
        PrepEntry, ("p", "dir", Zone.INSIDE, "final", None),
        "'p' has role 'final', equal to no member",
    ),
    "final-attained": (
        PrepEntry, ("p", "dir", Zone.INSIDE, LrefRole.FINAL, "yes"),
        "'p' has attained 'yes', equal to no member",
    ),
    "initial-attained": (
        PrepEntry, ("p", "dir", Zone.INSIDE, LrefRole.INITIAL, False),
        "attained only applies to directional-final preps",
    ),
}
VALID = {
    VerbEntry: VerbEntry("ok", "CoL", LrefRole.INITIAL, Zone.INSIDE, Zone.PROXIMAL),
    PrepEntry: PrepEntry("ok", "pos", Zone.INSIDE),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_an_entry_no_lexicon_line_gives_is_refused_however_it_is_built(name):
    cls, fields, message = REFUSALS[name]
    for build in (
        lambda: cls(*fields),
        lambda: cls(**dict(zip(cls._fields, fields))),
        lambda: cls._make(fields),
        lambda: VALID[cls]._replace(**dict(zip(cls._fields, fields))),
    ):
        with pytest.raises(IllFormedEntryError) as info:
            build()
        assert str(info.value) == message and info.value.line is None


def test_a_col_verb_outside_the_class_inventory_is_refused_however_it_is_built():
    # each of the 27 role and zone triples no lexicon line loads is refused
    # by the constructor in the loader's words
    unlexicalized = [triple for triple in VERB_TRIPLES if triple not in VERB_SHAPES]
    assert len(unlexicalized) == 27
    col = VerbEntry("v", "CoL", *VERB_SHAPES[0])
    for role, start, end in unlexicalized:
        pair = f"{start.label}→{end.label}"
        message = (
            f"medial verb 'v' must use the path encoding contact→contact, got {pair}"
            if role is LrefRole.MEDIAL
            else f"zone pair {pair} of 'v' is not a lexicalized class"
        )
        with pytest.raises(UnlexicalizedClassError) as info:
            load(f"LANG\tfr\nV\tv\tCoL\t{role.label}\t{start.label}\t{end.label}\n")
        assert (str(info.value), info.value.line) == (f"line 2: {message}", 2)
        for build in (
            lambda: VerbEntry("v", "CoL", role, start, end),
            lambda: VerbEntry._make(("v", "CoL", role, start, end, None)),
            lambda: col._replace(lref_role=role, start_zone=start, end_zone=end),
        ):
            with pytest.raises(UnlexicalizedClassError) as info:
                build()
            assert str(info.value) == message and info.value.line is None
    with pytest.raises(UnlexicalizedClassError) as info:
        VerbEntry("v", "CoL", LrefRole.MEDIAL, Zone.PROXIMAL, Zone.PROXIMAL)
    assert str(info.value) == (
        "medial verb 'v' must use the path encoding contact→contact, got proximal→proximal"
    )


def test_an_entry_holds_the_members_its_fields_equal():
    verb = VerbEntry("v", "CoL", 1.0, 1.0, True)
    assert verb == ("v", "CoL", LrefRole.MEDIAL, Zone.CONTACT, Zone.CONTACT, None)
    assert [type(field) for field in verb[2:5]] == [LrefRole, Zone, Zone]
    assert repr(verb) == (
        "VerbEntry(lemma='v', category='CoL', lref_role=<LrefRole.MEDIAL: 1>, "
        "start_zone=<Zone.CONTACT: 1>, end_zone=<Zone.CONTACT: 1>, gloss=None)"
    )
    assert VerbEntry._make(verb) == verb
    assert VALID[VerbEntry]._replace(lref_role=2.0).lref_role is LrefRole.FINAL
    prep = PrepEntry("p", "dir", 2.0, 2)  # a final prep is attained unless it says not
    assert prep[2:] == (Zone.PROXIMAL, LrefRole.FINAL, True) and prep.attained is True
    for equal, attained in ((0, False), (0.0, False), (1.0, True), (True, True)):
        assert prep._replace(attained=equal).attained is attained
    assert PrepEntry("p", "pos", 3.0).zone is Zone.DISTAL


@pytest.mark.parametrize(
    "entry, message",
    [
        ("V\tx\tcol", "unknown verb category 'col'"),
        ("V\tx\tCoPs\tinside", "CoPs verb 'x' must not carry zone fields"),
        (
            "P\tx\tdir\tinitial\tinside\tattained=true",
            "attained only applies to directional-final preps",
        ),
        ("P\tx\tpos\tinside\tattained=false", "positional prep cannot carry attained"),
        ("P\tx\tbogus\tinside", "unknown preposition kind 'bogus'"),
        ("P\tx\tbogus\tinitial\tinside\tattained=maybe", "unknown preposition kind 'bogus'"),
        ("V\tx\tCoPs\tgloss=a\rb", "bad gloss 'a\\rb'"),
    ],
    ids=["category", "zones-off-col", "attained-off-final", "attained-off-dir", "kind"]
    + ["kind-before-attained", "gloss"],
)
def test_a_refusal_of_the_constructor_names_its_line(entry, message):
    for _ in range(2):  # a refused shape is never kept
        with pytest.raises(IllFormedEntryError) as err:
            load(f"LANG\tfr\n{entry}\n")
        assert str(err.value) == f"line 2: {message}" and err.value.line == 2


_ROLE_ZONES = sorted(default_class_inventory())
# Lemmas and glosses stripped of ASCII whitespace alone, so that some start
# or end with a no-break or em space; a blank lemma is refused.
_NAME_CHARS = "abcdefghijklmnopqrstuvwxyzé' -\u00a0\u2003"
_LEMMA = st.text(alphabet=_NAME_CHARS, min_size=1, max_size=12).map(
    lambda lemma: lemma.strip(WHITESPACE)
).filter(str.strip)
_GLOSS = st.text(alphabet=_NAME_CHARS, max_size=12).map(
    lambda gloss: gloss.rstrip(WHITESPACE)
)


@st.composite
def verb_entries(draw):
    lemma = draw(_LEMMA)
    category = draw(st.sampled_from(["CoL", "CoPs", "ICoPs", "CoPtu"]))
    if category != "CoL":
        return VerbEntry(lemma, category, gloss=draw(st.none() | _GLOSS))
    if draw(st.booleans()):
        role = draw(st.sampled_from([LrefRole.INITIAL, LrefRole.FINAL]))
        start, end = draw(st.sampled_from(_ROLE_ZONES))
    else:
        role, (start, end) = LrefRole.MEDIAL, (Zone.CONTACT, Zone.CONTACT)
    return VerbEntry(lemma, category, role, start, end)


@st.composite
def prep_entries(draw):
    lemma = draw(_LEMMA)
    kind = draw(st.sampled_from(["pos", "dir"]))
    zone = draw(st.sampled_from(list(Zone)))
    if kind == "pos":
        return PrepEntry(lemma, kind, zone)
    role = draw(st.sampled_from(list(LrefRole)))
    attained = draw(st.booleans()) if role is LrefRole.FINAL else None
    return PrepEntry(lemma, kind, zone, role=role, attained=attained)


@given(data=st.data())
def test_generated_lexicons_round_trip(data):
    language = data.draw(st.sampled_from(["fr", "en"]))
    verbs = data.draw(st.lists(verb_entries(), max_size=6))
    preps = data.draw(st.lists(prep_entries(), max_size=6))
    lexicon = Lexicon(
        language=language,
        verbs={v.lemma: v for v in verbs},
        preps={p.lemma: p for p in preps},
    )
    assert load(dump_lexicon(lexicon)) == lexicon


# Raw text for a lemma or a gloss: a core that may hold ASCII whitespace, line
# breaks and an escape, between edges that may be a no-break or em space, an
# ASCII space or tab, or a line break.
_EDGE = st.sampled_from(["", "", "\u00a0", "\u2003", " ", "\t", "\n"])
_RAW = st.tuples(_EDGE, st.text("ab- \t\n\r\x0b\x1b\x85", max_size=3), _EDGE).map("".join)


def built(cls, *fields):
    """cls(*fields), or None if its constructor refuses them."""
    try:
        return cls(*fields)
    except (IllFormedEntryError, UnlexicalizedClassError):
        return None


def read_back(text):
    """The lexicon text loads as, or the FormatError it raises."""
    try:
        return load(text)
    except FormatError as exc:
        return exc


@settings(max_examples=25, deadline=None)
@example(language="fr", verbs=[("\u00a0lead\u2003", "\u2003to lead\u00a0", None)],
         preps=["\u2003in"], keys=[], crossed=False)
@example(language="en", verbs=[(" lead", None, None), ("lead", "to lead ", None)],
         preps=["in\t"], keys=[], crossed=False)
@example(language="fr", verbs=[("x", None, None)], preps=[], keys=["y"], crossed=False)
@example(language="fr", verbs=[("x", None, None)], preps=[], keys=[], crossed=True)
@example(language="fr", verbs=[("v", None, (LrefRole.MEDIAL, Zone.PROXIMAL, Zone.PROXIMAL))],
         preps=[], keys=[], crossed=False)
@given(
    language=st.sampled_from(["fr", "en", "de", "fr\u00a0", ""]),
    verbs=st.lists(
        st.tuples(_RAW, st.none() | _RAW, st.none() | st.sampled_from(VERB_TRIPLES)),
        max_size=4,
    ),
    preps=st.lists(_RAW, max_size=3),
    keys=st.lists(st.none() | _RAW, max_size=4),
    crossed=st.booleans(),
)
def test_the_constructors_accept_exactly_what_loads_back_as_it_was_dumped(
    language, verbs, preps, keys, crossed
):
    # what a constructor accepts, dump_lexicon writes and load_lexicon reads
    # back equal; what it refuses, written in the same format, is refused by
    # load_lexicon or read back changed.  A verb is CoPs or CoL with any of
    # the 48 role and zone triples; keys gives some verbs a key other than
    # their lemma, and crossed puts the first verb among the prepositions
    kept = {}
    for lemma, gloss, triple in verbs:
        category, shape = ("CoPs", (None,) * 3) if triple is None else ("CoL", triple)
        entry = built(VerbEntry, lemma, category, *shape, gloss)
        if entry is None:
            zones = "".join(f"\t{field.label}" for field in shape if field is not None)
            tail = "" if gloss is None else f"\tgloss={gloss}"
            loaded = read_back(f"LANG\tfr\nV\t{lemma}\t{category}{zones}{tail}\n")
            assert isinstance(loaded, FormatError) or list(loaded.verbs.values()) != [
                (lemma, category, *shape, gloss)
            ]
        else:
            kept[lemma] = entry
    kept_preps = {}
    for lemma in preps:
        entry = built(PrepEntry, lemma, "pos", Zone.INSIDE)
        if entry is None:
            loaded = read_back(f"LANG\tfr\nP\t{lemma}\tpos\tinside\n")
            assert isinstance(loaded, FormatError) or list(loaded.preps) != [lemma]
        else:
            kept_preps[lemma] = entry
    for lemma, key in list(zip(kept, keys)):
        if key is not None:
            kept[key] = kept.pop(lemma)
    if crossed and kept:
        entry = kept.pop(next(iter(kept)))
        kept_preps[entry.lemma] = entry
    lexicon = built(Lexicon, language, kept, kept_preps)
    if lexicon is not None:
        assert load(dump_lexicon(lexicon)) == lexicon
    elif built(Lexicon, language, {}, {}) is None:
        loaded = read_back(f"LANG\t{language}\n")
        assert isinstance(loaded, FormatError) or loaded.language != language
    else:  # a dump keys each entry by its own lemma, and writes a verb as no prep
        as_given = tuple.__new__(Lexicon, (language, kept, kept_preps))
        try:
            loaded = read_back(dump_lexicon(as_given))
        except AttributeError:  # a VerbEntry has no kind to write on a P line
            assert crossed
        else:
            assert isinstance(loaded, FormatError) or loaded != as_given


# Each value a dump would not give back, the field it is refused in, and
# the message, in the wording of load_lexicon.
NAME_REFUSALS = {
    "lemma-padded": (dict(lemma=" lead"), "bad lemma ' lead'"),
    "lemma-tab": (dict(lemma="a\tb"), "bad lemma 'a\\tb'"),
    "lemma-blank": (dict(lemma="\u00a0"), "bad lemma '\\xa0'"),
    "lemma-escape": (dict(lemma="sor\x1btir"), "bad lemma 'sor\\x1btir'"),
    "lemma-not-a-str": (dict(lemma=5), "bad lemma 5"),
    "gloss-line-break": (dict(gloss="x\ny"), "bad gloss 'x\\ny'"),
    "gloss-carriage-return": (dict(gloss="x\ry"), "bad gloss 'x\\ry'"),
    "gloss-tab": (dict(gloss="a\tb"), "bad gloss 'a\\tb'"),
    "gloss-padded-end": (dict(gloss="to run "), "bad gloss 'to run '"),
    "gloss-not-a-str": (dict(gloss=1), "bad gloss 1"),
}


@pytest.mark.parametrize("name", list(NAME_REFUSALS))
def test_a_name_a_dump_would_not_give_back_is_refused_at_construction(name):
    fields, message = NAME_REFUSALS[name]
    builds = [lambda: VALID[VerbEntry]._replace(**fields)]
    if "lemma" in fields:
        builds += [
            lambda: VerbEntry(fields["lemma"], "CoPs"),
            lambda: PrepEntry(fields["lemma"], "pos", Zone.INSIDE),
            lambda: VALID[PrepEntry]._replace(**fields),
        ]
    for build in builds:
        with pytest.raises(IllFormedEntryError) as info:
            build()
        assert str(info.value) == message


def test_a_lexicon_of_a_language_load_refuses_is_refused():
    for language in ("de", " fr", "", None):
        with pytest.raises(IllFormedEntryError) as info:
            Lexicon(language, {}, {})
        assert str(info.value) == f"unsupported language tag {language!r}"
    assert Lexicon("en", {}, {}).language == "en"
    for text in ("LANG\tde\n", "# de\nLANG\tde\nV\tx\tCoPs\n"):
        with pytest.raises(IllFormedEntryError) as info:
            load(text)
        line = text.count("\n", 0, text.index("LANG")) + 1
        message = f"line {line}: unsupported language tag 'de'"
        assert (str(info.value), info.value.line) == (message, line)


# Mappings a Lexicon refuses, and the key its message names: a key that is
# not its entry's lemma, or a value that is no entry of its part of speech.
LEXICON_REFUSALS = {
    "verb-key": ({"x": VALID[VerbEntry]._replace(lemma="y")}, {}, "x"),
    "prep-key": ({}, {"x": VALID[PrepEntry]._replace(lemma="y")}, "x"),
    "verb-text": ({"x": "y"}, {}, "x"),
    "verb-among-preps": ({}, {"x": VALID[VerbEntry]._replace(lemma="x")}, "x"),
    "prep-among-verbs": ({"x": VALID[PrepEntry]._replace(lemma="x")}, {}, "x"),
}


@pytest.mark.parametrize("name", list(LEXICON_REFUSALS))
def test_a_lexicon_holds_only_entries_keyed_by_their_own_lemmas(name):
    verbs, preps, key = LEXICON_REFUSALS[name]
    value = {**verbs, **preps}[key]
    for build in (
        lambda: Lexicon("fr", verbs, preps),
        lambda: Lexicon._make(("fr", verbs, preps)),
        lambda: default_lexicon("fr")._replace(verbs=verbs, preps=preps),
    ):
        with pytest.raises(IllFormedEntryError) as info:
            build()
        assert str(info.value) == f"lexicon key {key!r} holds {value!r}"
    entries = {"sortir": VALID[VerbEntry]._replace(lemma="sortir")}
    assert Lexicon("fr", entries, {}).verbs == entries
