"""Verb and preposition lexicons: data model, file format, classifiers.

The file format is line oriented and diff friendly so the data can be
curated by hand:

    # comment
    LANG fr
    V <lemma> <category> [<lref_role> <start_zone> <end_zone>] [gloss=...]
    P <lemma> <kind> [<role>] <zone> [attained=true|false]

Fields are tab separated (lemmas may therefore contain spaces), zone and
role names are the fixed lowercase labels, and verb zone fields are only
present on change-of-location (CoL) entries.
"""

from __future__ import annotations

import functools
import io
from importlib import resources
from typing import NamedTuple

from .errors import (
    DuplicateLemmaError,
    IllFormedEntryError,
    NotACoLVerbError,
    UnknownLemmaError,
    UnknownZoneNameError,
    UnlexicalizedClassError,
)
from .zones import LrefRole, Zone

LANGUAGES = ("fr", "en")

VERB_CATEGORIES = ("CoL", "CoPs", "ICoPs", "CoPtu")

# Begin/end zone pairs a change-of-location verb may lexicalize.  Not every
# geometrically possible pair is an actual verb class, so the inventory is
# configuration, not a hard-coded truth; this is the default shipped with
# the package (see data/col_classes.txt).
_MEDIAL_PATH_PAIR = (Zone.CONTACT, Zone.CONTACT)


class VerbEntry(NamedTuple):
    """One motion verb.

    Only CoL entries constrain zones: start_zone/end_zone give the
    mobile's zone with respect to the verb's reference location before
    and after the motion, and lref_role says which motion phase that
    location anchors.
    """

    lemma: str
    category: str
    lref_role: LrefRole | None = None
    start_zone: Zone | None = None
    end_zone: Zone | None = None
    gloss: str | None = None

    @property
    def is_col(self) -> bool:
        return self.category == "CoL"


class PrepEntry(NamedTuple):
    """One spatial preposition.

    Positional prepositions just name a static zone relation; directional
    ones additionally carry the motion-phase role they focus.  attained
    only applies to directional-final entries and defaults to true there
    (to/into assert arrival, towards does not).
    """

    lemma: str
    kind: str  # "pos" or "dir"
    zone: Zone
    role: LrefRole | None = None
    attained: bool | None = None

    @property
    def is_directional(self) -> bool:
        return self.kind == "dir"

    @property
    def effective_zone(self) -> Zone:
        """The zone the preposition actually commits to.

        An unattained final preposition only orients the motion, so its
        commitment weakens to proximity rather than its nominal zone.
        """
        if self.attained is False:
            return Zone.PROXIMAL
        return self.zone


class Lexicon(NamedTuple):
    """Immutable per-language lexicon with unique lemmas per part of speech."""

    language: str
    verbs: dict[str, VerbEntry]
    preps: dict[str, PrepEntry]


@functools.cache
def default_class_inventory() -> frozenset[tuple[Zone, Zone]]:
    """The shipped begin/end zone pair inventory for CoL verbs (read once)."""
    with resources.files("motionsem.data").joinpath("col_classes.txt").open(
        "r", encoding="utf-8"
    ) as fh:
        return load_class_inventory(fh)


def load_class_inventory(source: io.TextIOBase) -> frozenset[tuple[Zone, Zone]]:
    """Parse a class inventory file: one `<start_zone>\\t<end_zone>` per line."""
    pairs: set[tuple[Zone, Zone]] = set()
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise IllFormedEntryError("class line needs exactly two zones", lineno)
        try:
            pairs.add((Zone.from_label(parts[0]), Zone.from_label(parts[1])))
        except ValueError as exc:
            raise UnknownZoneNameError(str(exc), lineno) from None
    return frozenset(pairs)


def classify_verb(
    entry: VerbEntry,
    inventory: frozenset[tuple[Zone, Zone]] | None = None,
) -> str:
    """Class identifier for a CoL verb, derived from its zone pair alone.

    Medial-role verbs use the fixed path encoding contact->contact (the
    mobile hugs the path location's boundary before and after, and is
    inside it along the way); all other roles must use a pair from the
    configured inventory.
    """
    if not entry.is_col:
        raise NotACoLVerbError(f"{entry.lemma!r} is {entry.category}, not CoL")
    if entry.start_zone is None or entry.end_zone is None or entry.lref_role is None:
        raise IllFormedEntryError(f"CoL entry {entry.lemma!r} lacks zone constraints")
    pair = (entry.start_zone, entry.end_zone)
    if entry.lref_role is LrefRole.MEDIAL:
        if pair != _MEDIAL_PATH_PAIR:
            raise UnlexicalizedClassError(
                f"medial verb {entry.lemma!r} must use the path encoding "
                f"contact→contact, got {pair[0].label}→{pair[1].label}"
            )
    else:
        if inventory is None:
            inventory = default_class_inventory()
        if pair not in inventory:
            raise UnlexicalizedClassError(
                f"zone pair {pair[0].label}→{pair[1].label} of "
                f"{entry.lemma!r} is not a lexicalized class"
            )
    return f"{pair[0].label}→{pair[1].label}"


def classify_prep(entry: PrepEntry) -> str:
    """Group identifier for a preposition: kind, role (if any), and zone."""
    if entry.kind == "pos":
        return f"pos/{entry.zone.label}"
    if entry.role is None:
        raise IllFormedEntryError(f"directional {entry.lemma!r} lacks a role")
    return f"dir/{entry.role.label}/{entry.zone.label}"


def lookup_verb(lexicon: Lexicon, lemma: str) -> VerbEntry:
    try:
        return lexicon.verbs[lemma]
    except KeyError:
        raise UnknownLemmaError(
            f"verb {lemma!r} not in the {lexicon.language} lexicon"
        ) from None


def lookup_prep(lexicon: Lexicon, lemma: str) -> PrepEntry:
    try:
        return lexicon.preps[lemma]
    except KeyError:
        raise UnknownLemmaError(
            f"preposition {lemma!r} not in the {lexicon.language} lexicon"
        ) from None


def _parse_zone(tag: str, lineno: int) -> Zone:
    try:
        return Zone.from_label(tag)
    except ValueError:
        raise UnknownZoneNameError(f"unknown zone name {tag!r}", lineno) from None


def _parse_role(tag: str, lineno: int) -> LrefRole:
    try:
        return LrefRole.from_label(tag)
    except ValueError:
        raise IllFormedEntryError(f"unknown role {tag!r}", lineno) from None


def _parse_verb_line(fields: list[str], lineno: int, inventory) -> VerbEntry:
    if len(fields) < 3:
        raise IllFormedEntryError("verb line needs at least a lemma and category", lineno)
    lemma, category = fields[1].strip(), fields[2].strip()
    if not lemma:
        raise IllFormedEntryError("empty lemma", lineno)
    if category not in VERB_CATEGORIES:
        raise IllFormedEntryError(f"unknown verb category {category!r}", lineno)
    rest = [f.strip() for f in fields[3:]]

    gloss = None
    if rest and rest[-1].startswith("gloss="):
        gloss = rest.pop()[len("gloss=") :]

    if category == "CoL":
        if len(rest) != 3:
            raise IllFormedEntryError(
                "CoL verb needs <lref_role> <start_zone> <end_zone>", lineno
            )
        entry = VerbEntry(
            lemma=lemma,
            category=category,
            lref_role=_parse_role(rest[0], lineno),
            start_zone=_parse_zone(rest[1], lineno),
            end_zone=_parse_zone(rest[2], lineno),
            gloss=gloss,
        )
        try:
            classify_verb(entry, inventory)
        except UnlexicalizedClassError as exc:
            raise UnlexicalizedClassError(str(exc), lineno) from None
        return entry

    if rest:
        raise IllFormedEntryError(
            f"{category} verb {lemma!r} must not carry zone fields", lineno
        )
    return VerbEntry(lemma=lemma, category=category, gloss=gloss)


def _parse_prep_line(fields: list[str], lineno: int) -> PrepEntry:
    if len(fields) < 3:
        raise IllFormedEntryError("prep line needs at least a lemma and kind", lineno)
    lemma, kind = fields[1].strip(), fields[2].strip()
    if not lemma:
        raise IllFormedEntryError("empty lemma", lineno)
    if kind not in ("pos", "dir"):
        raise IllFormedEntryError(f"unknown preposition kind {kind!r}", lineno)
    rest = [f.strip() for f in fields[3:]]

    attained: bool | None = None
    if rest and rest[-1].startswith("attained="):
        value = rest.pop()[len("attained=") :]
        if value not in ("true", "false"):
            raise IllFormedEntryError(f"bad attained value {value!r}", lineno)
        attained = value == "true"

    if kind == "pos":
        if len(rest) != 1:
            raise IllFormedEntryError("positional prep needs exactly a zone", lineno)
        if attained is not None:
            raise IllFormedEntryError("positional prep cannot carry attained", lineno)
        return PrepEntry(lemma=lemma, kind=kind, zone=_parse_zone(rest[0], lineno))

    if len(rest) != 2:
        raise IllFormedEntryError("directional prep needs <role> <zone>", lineno)
    role = _parse_role(rest[0], lineno)
    zone = _parse_zone(rest[1], lineno)
    if role is LrefRole.FINAL:
        if attained is None:
            attained = True  # to/into-style arrival is the default
    elif attained is not None:
        raise IllFormedEntryError(
            "attained only applies to directional-final preps", lineno
        )
    return PrepEntry(lemma=lemma, kind=kind, zone=zone, role=role, attained=attained)


def load_lexicon(
    source: io.TextIOBase,
    language: str | None = None,
    inventory: frozenset[tuple[Zone, Zone]] | None = None,
) -> Lexicon:
    """Parse a lexicon stream into a validated Lexicon.

    The language normally comes from the file's LANG header; an explicit
    argument acts as a default when the header is absent and is
    cross-checked against it otherwise.  Errors carry line numbers.
    """
    if inventory is None:
        inventory = default_class_inventory()

    verbs: dict[str, VerbEntry] = {}
    preps: dict[str, PrepEntry] = {}
    file_language: str | None = None

    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        tag = fields[0].strip()

        if tag == "LANG":
            if len(fields) != 2 or not fields[1].strip():
                raise IllFormedEntryError("LANG line needs exactly one tag", lineno)
            value = fields[1].strip()
            if value not in LANGUAGES:
                raise IllFormedEntryError(f"unsupported language tag {value!r}", lineno)
            if file_language is not None:
                raise IllFormedEntryError("second LANG line", lineno)
            if language is not None and value != language:
                raise IllFormedEntryError(
                    f"file is tagged {value!r} but {language!r} was requested", lineno
                )
            file_language = value
            continue

        if file_language is None and language is None:
            raise IllFormedEntryError("entry before any LANG header", lineno)

        if tag == "V":
            entry = _parse_verb_line(fields, lineno, inventory)
            if entry.lemma in verbs:
                raise DuplicateLemmaError(f"verb {entry.lemma!r} defined twice", lineno)
            verbs[entry.lemma] = entry
        elif tag == "P":
            pentry = _parse_prep_line(fields, lineno)
            if pentry.lemma in preps:
                raise DuplicateLemmaError(
                    f"preposition {pentry.lemma!r} defined twice", lineno
                )
            preps[pentry.lemma] = pentry
        else:
            raise IllFormedEntryError(f"unknown line tag {tag!r}", lineno)

    lang = file_language or language
    if lang is None:
        raise IllFormedEntryError("lexicon has no LANG header and no default language")
    if lang not in LANGUAGES:
        raise IllFormedEntryError(f"unsupported language tag {lang!r}")
    return Lexicon(language=lang, verbs=verbs, preps=preps)


def dump_lexicon(lexicon: Lexicon) -> str:
    """Serialize a lexicon back to its line format (comments are not kept)."""
    lines = [f"LANG\t{lexicon.language}"]
    for entry in lexicon.verbs.values():
        fields = ["V", entry.lemma, entry.category]
        if entry.is_col:
            assert entry.lref_role is not None and entry.start_zone is not None
            fields += [
                entry.lref_role.label,
                entry.start_zone.label,
                entry.end_zone.label,
            ]
        if entry.gloss is not None:
            fields.append(f"gloss={entry.gloss}")
        lines.append("\t".join(fields))
    for pentry in lexicon.preps.values():
        fields = ["P", pentry.lemma, pentry.kind]
        if pentry.role is not None:
            fields.append(pentry.role.label)
        fields.append(pentry.zone.label)
        if pentry.attained is not None:
            fields.append(f"attained={'true' if pentry.attained else 'false'}")
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def load_lexicon_path(path: str, language: str | None = None) -> Lexicon:
    with open(path, "r", encoding="utf-8") as fh:
        return load_lexicon(fh, language)


def default_lexicon(language: str) -> Lexicon:
    """The seed lexicon shipped with the package for fr or en."""
    name = f"{language}.lex"
    with resources.files("motionsem.data").joinpath(name).open(
        "r", encoding="utf-8"
    ) as fh:
        return load_lexicon(fh, language)
