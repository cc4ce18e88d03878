"""Verb and preposition lexicons: data model, file format, classifiers.

The file format is line oriented and diff friendly so the data can be
curated by hand:

    # comment
    LANG fr
    V <lemma> <category> [<lref_role> <start_zone> <end_zone>] [gloss=...]
    P <lemma> <kind> [<role>] <zone> [attained=true|false]

Fields are tab separated (lemmas may therefore contain spaces), zone and
role names are the lowercase labels but are accepted in any case, and
verb zone fields are only present on change-of-location (CoL) entries.
The LANG header comes before every entry.  A zone or role name that
names no member raises UnknownNameError through the enums' from_label,
as in every other data file.  load_lexicon validates each distinct entry
shape once per call, and never keeps an error.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Iterable, Mapping
from types import MappingProxyType

from .errors import (
    DuplicateLemmaError,
    FormatError,
    IllFormedEntryError,
    NotACoLVerbError,
    UnknownLanguageError,
    UnknownLemmaError,
    UnlexicalizedClassError,
    data_lines,
    read_bundled,
)
from .zones import LrefRole, Zone

LANGUAGES = ("fr", "en")

VERB_CATEGORIES = ("CoL", "CoPs", "ICoPs", "CoPtu")


class VerbEntry(namedtuple(
    "VerbEntry", "lemma category lref_role start_zone end_zone gloss",
    defaults=(None, None, None, None),
)):
    """One motion verb.

    Only CoL entries constrain zones: start_zone/end_zone give the
    mobile's zone with respect to the verb's reference location before
    and after the motion, and lref_role says which motion phase that
    location anchors.
    """

    __slots__ = ()

    @property
    def is_col(self) -> bool:
        return self.category == "CoL"


class PrepEntry(namedtuple(
    "PrepEntry", "lemma kind zone role attained", defaults=(None, None)
)):
    """One spatial preposition.

    Positional prepositions ("pos") just name a static zone relation;
    directional ones ("dir") additionally carry the motion-phase role they
    focus.  attained only applies to directional-final entries and
    defaults to true there (to/into assert arrival, towards does not).
    """

    __slots__ = ()

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


class Lexicon(namedtuple("Lexicon", "language verbs preps")):
    """Immutable per-language lexicon with unique lemmas per part of speech.

    verbs and preps are read-only copies of the mappings passed in.
    """

    __slots__ = ()

    def __new__(cls, language, verbs, preps):
        return super().__new__(
            cls, language, MappingProxyType(dict(verbs)), MappingProxyType(dict(preps))
        )

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so _replace copies too

    def __getnewargs__(self):  # for pickle and copy: a mappingproxy cannot be pickled
        return self.language, dict(self.verbs), dict(self.preps)


@functools.cache
def default_class_inventory() -> frozenset[tuple[Zone, Zone]]:
    """The begin/end zone pairs a CoL verb may lexicalize (read once).

    Not every geometrically possible pair is an actual verb class; the
    inventory is the data file data/col_classes.txt, one
    `<start_zone>\\t<end_zone>` per line.
    """
    pairs: set[tuple[Zone, Zone]] = set()
    for lineno, line in data_lines(read_bundled("col_classes.txt")):
        parts = line.split()
        try:
            if len(parts) != 2:
                raise IllFormedEntryError("class line needs exactly two zones")
            pairs.add((Zone.from_label(parts[0]), Zone.from_label(parts[1])))
        except FormatError as exc:
            raise exc.at_line(lineno)
    return frozenset(pairs)


# Read once: an enum member or method read as a class attribute costs
# about 130 ns, and a lexicon reads hundreds of labels.
_MEDIAL, _PATH_PAIR = LrefRole.MEDIAL, (Zone.CONTACT, Zone.CONTACT)
_zone, _role = Zone.from_label, LrefRole.from_label
# A named tuple from a tuple of its fields, skipping the class's Python-level
# __new__: for hot paths, on classes whose __new__ checks nothing.
_new = tuple.__new__


def _lexicalized(role: LrefRole, pair: tuple[Zone, Zone]) -> bool:
    """Whether a CoL verb of this role may use this begin/end zone pair.

    Medial-role verbs use the fixed path encoding contact->contact (the
    mobile hugs the path location's boundary before and after, and is
    inside it along the way); all other roles a pair from the inventory.
    """
    if role is _MEDIAL:
        return pair == _PATH_PAIR
    return pair in default_class_inventory()


def _require_zones(entry: VerbEntry) -> None:
    """Raise IllFormedEntryError if a CoL entry lacks its role or a zone."""
    if entry.start_zone is None or entry.end_zone is None or entry.lref_role is None:
        raise IllFormedEntryError(f"CoL entry {entry.lemma!r} lacks zone constraints")


def classify_verb(entry: VerbEntry) -> str:
    """Class identifier for a CoL verb, derived from its zone pair alone."""
    if not entry.is_col:
        raise NotACoLVerbError(f"{entry.lemma!r} is {entry.category}, not CoL")
    _require_zones(entry)
    pair = (entry.start_zone, entry.end_zone)
    if _lexicalized(entry.lref_role, pair):
        return f"{pair[0].label}→{pair[1].label}"
    if entry.lref_role is LrefRole.MEDIAL:
        raise UnlexicalizedClassError(
            f"medial verb {entry.lemma!r} must use the path encoding "
            f"contact→contact, got {pair[0].label}→{pair[1].label}"
        )
    raise UnlexicalizedClassError(
        f"zone pair {pair[0].label}→{pair[1].label} of "
        f"{entry.lemma!r} is not a lexicalized class"
    )


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


def lookup_lexicon(lexicons: Mapping[str, Lexicon], language: str) -> Lexicon:
    if language not in lexicons:
        raise UnknownLanguageError(f"no lexicon loaded for {language!r}")
    return lexicons[language]


def _parse_verb_line(lemma: str, tail: str) -> tuple:
    """The category, role and zones of a V line, from its tail (see load_lexicon)."""
    category, *rest = [field.strip() for field in tail.split("\t")]
    if category not in VERB_CATEGORIES:
        raise IllFormedEntryError(f"unknown verb category {category!r}")

    if category == "CoL":
        if len(rest) != 3:
            raise IllFormedEntryError(
                "CoL verb needs <lref_role> <start_zone> <end_zone>"
            )
        role = _role(rest[0])
        pair = (_zone(rest[1]), _zone(rest[2]))
        if not _lexicalized(role, pair):  # classify_verb raises with the class message
            classify_verb(VerbEntry(lemma, category, role, *pair))
        return (category, role) + pair

    if rest:
        raise IllFormedEntryError(
            f"{category} verb {lemma!r} must not carry zone fields"
        )
    return (category, None, None, None)


def _parse_prep_line(tail: str) -> tuple:
    """The kind, zone, role and attainment of a P line, from its tail."""
    kind, *rest = [field.strip() for field in tail.split("\t")]
    if kind not in ("pos", "dir"):
        raise IllFormedEntryError(f"unknown preposition kind {kind!r}")

    attained: bool | None = None
    if rest and rest[-1].startswith("attained="):
        value = rest.pop()[len("attained=") :]
        if value not in ("true", "false"):
            raise IllFormedEntryError(f"bad attained value {value!r}")
        attained = value == "true"

    if kind == "pos":
        if len(rest) != 1:
            raise IllFormedEntryError("positional prep needs exactly a zone")
        if attained is not None:
            raise IllFormedEntryError("positional prep cannot carry attained")
        return (kind, _zone(rest[0]), None, None)

    if len(rest) != 2:
        raise IllFormedEntryError("directional prep needs <role> <zone>")
    role = _role(rest[0])
    zone = _zone(rest[1])
    if role is LrefRole.FINAL:
        if attained is None:
            attained = True  # to/into-style arrival is the default
    elif attained is not None:
        raise IllFormedEntryError("attained only applies to directional-final preps")
    return (kind, zone, role, attained)


# Each entry tag, with the error of a line that stops before its tail.
_SHORT_LINE = {
    "V": "verb line needs at least a lemma and category",
    "P": "prep line needs at least a lemma and kind",
}


def load_lexicon(source: Iterable[str]) -> Lexicon:
    """Parse the lines of a lexicon into a validated Lexicon.

    source is any iterable of lines, such as an open file, a list or
    read_data_file's stream.  The language comes from the file's LANG
    header, which must precede every entry.  Errors carry line numbers,
    except for a missing header, which no one line holds.

    An entry's shape is its tag and tail: the raw text after the lemma,
    less a verb's gloss.  Each distinct shape is validated once per call
    and its entries are built from the fields it parsed to; the lemma
    checks run on every line, and an error is never kept.
    """
    verbs: dict[str, VerbEntry] = {}
    preps: dict[str, PrepEntry] = {}
    language: str | None = None
    shapes: dict[tuple[str, str], tuple] = {}  # (tag, tail) -> fields after the lemma

    for lineno, line in data_lines(source):
        parts = line.split("\t", 2)
        tag = parts[0].strip()
        try:
            if tag == "LANG":
                value = parts[1].strip() if len(parts) == 2 else ""
                if not value:
                    raise IllFormedEntryError("LANG line needs exactly one tag")
                if value not in LANGUAGES:
                    raise IllFormedEntryError(f"unsupported language tag {value!r}")
                if language is not None:
                    raise IllFormedEntryError("second LANG line")
                language = value
                continue

            if language is None:
                raise IllFormedEntryError("entry before any LANG header")

            if tag not in _SHORT_LINE:
                raise IllFormedEntryError(f"unknown line tag {tag!r}")
            if len(parts) < 3:
                raise IllFormedEntryError(_SHORT_LINE[tag])
            lemma, tail = parts[1].strip(), parts[2]
            if not lemma:
                raise IllFormedEntryError("empty lemma")

            if tag == "V":
                gloss = None
                if "gloss=" in tail:
                    head, tab, last = tail.rpartition("\t")
                    last = last.strip()
                    if tab and last.startswith("gloss="):
                        tail, gloss = head, last[len("gloss=") :]
                fields = shapes.get(key := ("V", tail))
                if fields is None:
                    fields = shapes[key] = _parse_verb_line(lemma, tail)
                if lemma in verbs:
                    raise DuplicateLemmaError(f"verb {lemma!r} defined twice")
                verbs[lemma] = _new(VerbEntry, (lemma,) + fields + (gloss,))
            else:
                fields = shapes.get(key := ("P", tail))
                if fields is None:
                    fields = shapes[key] = _parse_prep_line(tail)
                if lemma in preps:
                    raise DuplicateLemmaError(f"preposition {lemma!r} defined twice")
                preps[lemma] = _new(PrepEntry, (lemma,) + fields)
        except FormatError as exc:
            # an inventory error raised here already names its own file's line
            raise exc.at_line(lineno)

    if language is None:
        raise IllFormedEntryError("lexicon has no LANG header")
    return Lexicon(language=language, verbs=verbs, preps=preps)


def dump_lexicon(lexicon: Lexicon) -> str:
    """Serialize a lexicon back to its line format (comments are not kept)."""
    lines = [f"LANG\t{lexicon.language}"]
    for entry in lexicon.verbs.values():
        fields = ["V", entry.lemma, entry.category]
        if entry.is_col:
            _require_zones(entry)
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


def default_lexicon(language: str) -> Lexicon:
    """The seed lexicon shipped with the package for fr or en."""
    if language not in LANGUAGES:
        raise UnknownLanguageError(f"no bundled lexicon for {language!r}")
    lexicon = load_lexicon(read_bundled(f"{language}.lex"))
    if lexicon.language != language:
        raise IllFormedEntryError(
            f"{language}.lex is tagged {lexicon.language!r}, not {language!r}"
        )
    return lexicon
