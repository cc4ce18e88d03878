"""Lexicon loading, validation, classification, and round-trips."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, strategies as st

from motionsem.errors import (
    DuplicateLemmaError,
    IllFormedEntryError,
    NotACoLVerbError,
    UnknownLemmaError,
    UnknownZoneNameError,
    UnlexicalizedClassError,
)
from motionsem.lexicon import (
    Lexicon,
    PrepEntry,
    VerbEntry,
    classify_prep,
    classify_verb,
    default_class_inventory,
    default_lexicon,
    dump_lexicon,
    load_lexicon,
    lookup_prep,
    lookup_verb,
)
from motionsem.zones import LrefRole, Zone


def load(text: str, language: str | None = None) -> Lexicon:
    return load_lexicon(io.StringIO(text), language)


def test_single_verb_line():
    lex = load("V\tsortir\tCoL\tinitial\tinside\tproximal\n", language="fr")
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


def test_lang_header_conflict():
    with pytest.raises(IllFormedEntryError):
        load("LANG\ten\n", language="fr")


def test_no_language_anywhere():
    with pytest.raises(IllFormedEntryError):
        load("P\tdans\tpos\tinside\n")


def test_duplicate_lemma():
    text = "LANG\tfr\nP\tdans\tpos\tinside\nP\tdans\tpos\tcontact\n"
    with pytest.raises(DuplicateLemmaError) as err:
        load(text)
    assert err.value.line == 3


def test_unknown_zone_name():
    with pytest.raises(UnknownZoneNameError) as err:
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


@pytest.mark.parametrize(
    "lemma, language, expected",
    [
        ("dans", "fr", "pos/inside"),
        ("into", "en", "dir/final/inside"),
        ("through", "en", "dir/medial/inside"),
    ],
)
def test_classify_prep_examples(lemma, language, expected):
    lex = default_lexicon(language)
    assert classify_prep(lex.preps[lemma]) == expected


def test_classify_prep_identifier_space():
    # distinct zone or role means distinct group
    groups = {
        classify_prep(p)
        for lang in ("fr", "en")
        for p in default_lexicon(lang).preps.values()
    }
    assert "pos/inside" in groups and "dir/initial/inside" in groups
    assert len(groups) >= 7


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


_ROLE_ZONES = sorted(default_class_inventory())
_LEMMA = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzé' -", min_size=1, max_size=12
).map(str.strip).filter(bool)


@st.composite
def verb_entries(draw):
    lemma = draw(_LEMMA)
    category = draw(st.sampled_from(["CoL", "CoPs", "ICoPs", "CoPtu"]))
    if category != "CoL":
        return VerbEntry(lemma, category, gloss=draw(st.none() | st.just("a gloss")))
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
