"""Verb and preposition lexicons: data model, file format, classifiers.

The file format is line oriented and diff friendly so the data can be
curated by hand:

    # comment
    LANG fr
    V <lemma> <category> [<lref_role> <start_zone> <end_zone>] [gloss=...]
    P <lemma> <kind> [<role>] <zone> [attained=true|false]

Fields are tab separated (a lemma, a name by errors.is_name, may hold
spaces) and, like the inventory's pairs, cut and stripped at ASCII
whitespace only; zone and role names are the lowercase labels but are
accepted in any ASCII case, and verb zone fields are only present on
change-of-location (CoL) entries.  The LANG header comes before every
entry.  A zone or role name that names no member raises UnknownNameError
through Zone or LrefRole.from_label, as in every other data file.
load_lexicon validates each distinct entry shape once per process and
class inventory, in a bounded memo that never keeps an error.

VerbEntry, PrepEntry and Lexicon decide what they may hold: built by a
call, _make or _replace, an entry holds the shapes a lexicon line can
give (verb_shapes, PREP_SHAPES), each zone and role a member, and a lexicon a
language of LANGUAGES and entries keyed by their own lemmas, or each
raises IllFormedEntryError (a CoL verb outside the class inventory
UnlexicalizedClassError); lemmas and glosses are what a dump writes and
a load reads back.
"""

import functools
from collections.abc import Iterable, Mapping
from types import MappingProxyType

from .errors import (
    DuplicateLemmaError,
    FormatError,
    IllFormedEntryError,
    NotACoLVerbError,
    Record,
    UnknownLanguageError,
    UnknownLemmaError,
    UnlexicalizedClassError,
    WHITESPACE,
    _check_name,
    _member,
    _new,
    data_lines,
    is_name,
    read_bundled,
    split_fields,
)
from .zones import LrefRole, Zone

LANGUAGES = ("fr", "en")

VERB_CATEGORIES = ("CoL", "CoPs", "ICoPs", "CoPtu")


class VerbEntry(
    Record,
    fields="lemma category lref_role start_zone end_zone gloss",
    defaults=(None, None, None, None),
):
    """One motion verb.

    Only CoL entries constrain zones: start_zone/end_zone give the
    mobile's zone with respect to the verb's reference location before
    and after the motion, and lref_role says which motion phase that
    location anchors.  The category is one of VERB_CATEGORIES; a CoL
    entry has its role and both zones, each held as the member it equals
    (1.0 is LrefRole.MEDIAL), and any other entry none of them; a CoL
    entry's role and pair are one of verb_shapes(), or it raises
    UnlexicalizedClassError as a load does (classify_verb).  The lemma
    and the gloss are what dump_lexicon writes and load_lexicon reads back
    as they are: the lemma a name with no ASCII whitespace at an edge, the
    gloss a str with no tab or line break and none at its end.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        lemma, category, role, start, end, gloss = self = super().__new__(
            cls, *args, **kwargs
        )
        _check_name(lemma, "lemma")
        _check_gloss(gloss)
        if category not in VERB_CATEGORIES:
            raise IllFormedEntryError(f"unknown verb category {category!r}")
        if category != "CoL":
            if role is None and start is None and end is None:
                return self
            raise IllFormedEntryError(
                f"{category} verb {lemma!r} must not carry zone fields"
            )
        if role is None or start is None or end is None:
            raise IllFormedEntryError(f"CoL entry {lemma!r} lacks zone constraints")
        self = tuple.__new__(cls, (
            lemma, category, _member(self, 2, LrefRole), _member(self, 3, Zone),
            _member(self, 4, Zone), gloss,
        ))
        classify_verb(self)  # raises outside the class inventory
        return self

    @property
    def is_col(self) -> bool:
        return self.category == "CoL"


class PrepEntry(Record, fields="lemma kind zone role attained", defaults=(None, None)):
    """One spatial preposition.

    Positional prepositions ("pos") just name a static zone relation;
    directional ones ("dir") additionally carry the motion-phase role they
    focus.  The zone and role are held as the members they equal.  A
    positional entry has no role and no attained, a directional one has a
    role, and attained only applies to directional-final entries: there
    it is a bool (0 is False) and defaults to true, as in the file format
    (to/into assert arrival, towards does not).  The lemma is a name as a
    verb's is.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        lemma, kind, zone, role, attained = self = super().__new__(cls, *args, **kwargs)
        _check_name(lemma, "lemma")
        _check_kind(kind)
        zone = _member(self, 2, Zone)
        if kind == "pos":
            if role is not None:
                raise IllFormedEntryError(f"positional prep {lemma!r} has a role")
            if attained is not None:
                raise IllFormedEntryError("positional prep cannot carry attained")
        elif role is None:
            raise IllFormedEntryError(f"directional prep {lemma!r} lacks a role")
        elif (role := _member(self, 3, LrefRole)) is LrefRole.FINAL:
            attained = True if attained is None else _member(self, 4, _BOOL)
        elif attained is not None:
            raise IllFormedEntryError(
                "attained only applies to directional-final preps"
            )
        return tuple.__new__(cls, (lemma, kind, zone, role, attained))

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


_BOOL = {False: False, True: True}.__getitem__

# The (kind, zone, role, attained) of each preposition entry PrepEntry takes.
PREP_SHAPES = tuple([("pos", zone, None, None) for zone in Zone] + [
    ("dir", zone, role, attained) for zone in Zone for role in LrefRole
    for attained in ((True, False) if role is LrefRole.FINAL else (None,))
])


def _check_gloss(gloss) -> None:
    """Refuse a gloss a load would not read back (for VerbEntry and load_lexicon)."""
    if gloss is not None and not (  # as a load reads it: to a tab or line end, rstripped
        isinstance(gloss, str)
        and gloss.rstrip(WHITESPACE) == gloss
        and "\t" not in gloss and "\n" not in gloss and "\r" not in gloss
    ):
        raise IllFormedEntryError(f"bad gloss {gloss!r}")


def _check_kind(kind) -> None:
    """Refuse a preposition kind other than pos or dir (for PrepEntry and load_lexicon)."""
    if kind not in ("pos", "dir"):
        raise IllFormedEntryError(f"unknown preposition kind {kind!r}")


class Lexicon(Record, fields="language verbs preps"):
    """Immutable per-language lexicon with unique lemmas per part of speech.

    The language is one of LANGUAGES; verbs and preps are read-only
    copies of the mappings passed in, of entries keyed by their lemmas.
    """

    __slots__ = ()

    def __new__(cls, language, verbs, preps):
        if language not in LANGUAGES:
            raise IllFormedEntryError(f"unsupported language tag {language!r}")
        self = _, verbs, preps = super().__new__(
            cls, language, MappingProxyType(dict(verbs)), MappingProxyType(dict(preps))
        )
        for entries, of in ((verbs, VerbEntry), (preps, PrepEntry)):
            for lemma, entry in entries.items():
                if not (isinstance(entry, of) and entry.lemma == lemma):
                    raise IllFormedEntryError(f"lexicon key {lemma!r} holds {entry!r}")
        return self

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
        parts = split_fields(line)
        try:
            if len(parts) != 2:
                raise IllFormedEntryError("class line needs exactly two zones")
            pairs.add((Zone.from_label(parts[0]), Zone.from_label(parts[1])))
        except FormatError as exc:
            raise exc.at_line(lineno)
    return frozenset(pairs)


def verb_shapes() -> tuple[tuple[LrefRole, Zone, Zone], ...]:
    """The (role, start, end) triples a CoL VerbEntry takes, in value order: a
    medial verb the path encoding contact->contact (the mobile hugs the path
    location's boundary before and after, and is inside it along the way), an
    initial or final one each pair of the class inventory."""
    return _verb_shapes(default_class_inventory())


@functools.cache  # by inventory, so that a cleared and re-read one is honoured
def _verb_shapes(inventory: frozenset) -> tuple[tuple[LrefRole, Zone, Zone], ...]:
    ends = [(role, *pair) for role in (LrefRole.INITIAL, LrefRole.FINAL) for pair in inventory]
    return tuple(sorted([(LrefRole.MEDIAL, Zone.CONTACT, Zone.CONTACT)] + ends))


def classify_verb(entry: VerbEntry) -> str:
    """Class identifier for a CoL verb, derived from its zone pair alone."""
    if not entry.is_col:
        raise NotACoLVerbError(f"{entry.lemma!r} is {entry.category}, not CoL")
    pair = (entry.start_zone, entry.end_zone)
    if (entry.lref_role, *pair) in verb_shapes():
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
    category, *rest = [field.strip(WHITESPACE) for field in tail.split("\t")]
    if category == "CoL":
        if len(rest) != 3:
            raise IllFormedEntryError(
                "CoL verb needs <lref_role> <start_zone> <end_zone>"
            )
        rest = [LrefRole.from_label(rest[0]), *map(Zone.from_label, rest[1:])]
    return VerbEntry(lemma, category, *rest[:3])[1:5]


def _parse_prep_line(lemma: str, tail: str) -> tuple:
    """The kind, zone, role and attainment of a P line, from its tail."""
    kind, *rest = [field.strip(WHITESPACE) for field in tail.split("\t")]
    _check_kind(kind)  # before its attained field is read

    attained: bool | None = None
    if rest and rest[-1].startswith("attained="):
        value = rest.pop()[len("attained=") :]
        if value not in ("true", "false"):
            raise IllFormedEntryError(f"bad attained value {value!r}")
        attained = value == "true"

    if kind == "pos":
        if len(rest) != 1:
            raise IllFormedEntryError("positional prep needs exactly a zone")
        return PrepEntry(lemma, kind, Zone.from_label(rest[0]), None, attained)[1:]

    if len(rest) != 2:
        raise IllFormedEntryError("directional prep needs <role> <zone>")
    role = LrefRole.from_label(rest[0])
    return PrepEntry(lemma, kind, Zone.from_label(rest[1]), role, attained)[1:]


# Each entry tag, with the error of a line that stops before its tail.
_SHORT_LINE = {
    "V": "verb line needs at least a lemma and category",
    "P": "prep line needs at least a lemma and kind",
}
# load_lexicon's (inventory, tag, tail) -> fields memo: a verb shape's validity
# depends on the class inventory.  The spellings of a tail are unbounded, while
# the valid shapes in lowercase spelling number 48 (24 verb and 24 preposition
# tails), so it holds at most _SHAPE_BOUND shapes.
_SHAPES: dict[tuple, tuple] = {}
_SHAPE_BOUND = 1024


def _remember(key: tuple, fields: tuple) -> tuple:
    """fields, kept in _SHAPES under key; a memo at its bound is emptied first."""
    if len(_SHAPES) >= _SHAPE_BOUND:
        _SHAPES.clear()
    _SHAPES[key] = fields
    return fields


def load_lexicon(source: Iterable[str]) -> Lexicon:
    """Parse the lines of a lexicon into a validated Lexicon.

    source is any iterable of lines, such as an open file, a list or
    read_data_file's stream.  The language comes from the file's LANG
    header, which must precede every entry.  Errors carry line numbers,
    except for a missing header, which no one line holds.

    An entry's shape is its tag and tail: the raw text after the lemma,
    less a verb's gloss.  Each distinct shape is validated once per
    process and class inventory, which the first entry line reads, and
    its entries are built from the fields it parsed to (_SHAPES); the
    lemma and gloss checks run on every line, and an error is never kept.
    """
    verbs: dict[str, VerbEntry] = {}
    preps: dict[str, PrepEntry] = {}
    language: str | None = None
    inventory: frozenset | None = None

    for lineno, line in data_lines(source):
        parts = line.split("\t", 2)
        tag = parts[0].strip(WHITESPACE)
        try:
            if tag == "LANG":
                value = parts[1].strip(WHITESPACE) if len(parts) == 2 else ""
                if not value:
                    raise IllFormedEntryError("LANG line needs exactly one tag")
                Lexicon(value, {}, {})  # the constructor's refusal, on no entries
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
            lemma, tail = parts[1].strip(WHITESPACE), parts[2]
            if not is_name(lemma):  # a stripped str: is_name decides as _check_name does
                _check_name(lemma, "lemma")  # on a hit, no constructor checks it
            if inventory is None:
                inventory = default_class_inventory()

            if tag == "V":
                gloss = None
                if "gloss=" in tail:
                    head, tab, last = tail.rpartition("\t")
                    last = last.strip(WHITESPACE)
                    if tab and last.startswith("gloss="):
                        tail, gloss = head, last[len("gloss=") :]
                        _check_gloss(gloss)  # no constructor checks it
                fields = _SHAPES.get(key := (inventory, "V", tail))
                if fields is None:
                    fields = _remember(key, _parse_verb_line(lemma, tail))
                if lemma in verbs:
                    raise DuplicateLemmaError(f"verb {lemma!r} defined twice")
                verbs[lemma] = _new(VerbEntry, (lemma,) + fields + (gloss,))
            else:
                fields = _SHAPES.get(key := (inventory, "P", tail))
                if fields is None:
                    fields = _remember(key, _parse_prep_line(lemma, tail))
                if lemma in preps:
                    raise DuplicateLemmaError(f"preposition {lemma!r} defined twice")
                preps[lemma] = _new(PrepEntry, (lemma,) + fields)
        except FormatError as exc:
            # an inventory error raised here already names its own file's line
            raise exc.at_line(lineno)

    if language is None:
        raise IllFormedEntryError("lexicon has no LANG header")
    return Lexicon(language, verbs, preps)


def dump_lexicon(lexicon: Lexicon) -> str:
    """Serialize a lexicon back to its line format (comments are not kept)."""
    lines = [f"LANG\t{lexicon.language}"]
    for entry in lexicon.verbs.values():
        fields = ["V", entry.lemma, entry.category]
        if entry.is_col:
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
