"""Errors raised across the package, with the wire names used in corpus files.

An unknown zone, phase, role or provenance name raises one error,
UnknownNameError, with one wording, whichever file or call it comes from.
Also holds the one reader of data files, given or bundled in DATA_DIR,
the one line loop of their parsers, the whitespace they cut fields at and
the rule of a name (is_name), so that all four formats load alike, and
Record, the base of every record class: the package imports it first.
"""

import io
import os
from collections import _tuplegetter
from collections.abc import Iterable, Iterator

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# ASCII only: str.strip() and str.split() also take U+00A0, which a name may
# hold, so every loader decides blank and comment lines and cuts and strips
# every field at these alone (split_fields, strip(WHITESPACE)).
WHITESPACE = " \t\n\r\x0b\x0c"
_TO_SPACE = str.maketrans(dict.fromkeys(WHITESPACE, " "))


def split_fields(text: str) -> list[str]:
    """text.split(), cut only at WHITESPACE: the non-empty runs between its characters.

    A field holds no ASCII whitespace, so it reads the same translated.
    """
    return [field for field in text.translate(_TO_SPACE).split(" ") if field]


# A name may hold the Unicode space separators (category Zs), but str.isprintable
# takes only U+0020 of them.  translate raises a KeyError for each character this
# table lacks, so is_name translates only text that is not printable as it is.
_SPACE_SEPARATORS = dict.fromkeys(
    (0xA0, 0x1680, *range(0x2000, 0x200B), 0x202F, 0x205F, 0x3000), " "
)


def is_name(text: str) -> bool:
    """Whether text is a name: not empty, not blank, printable once Zs reads as space."""
    printable = text.isprintable() or text.translate(_SPACE_SEPARATORS).isprintable()
    return printable and text != "" and not text.isspace()


def _check_name(text, kind: str) -> None:
    """Raise IllFormedEntryError, worded as the readers word it, unless text is a
    name that a data file gives back as it is: a str name with no WHITESPACE at
    either edge, which every reader strips.  For the constructors of what a dump
    writes (lemmas, rule ids, the VERSION value)."""
    if not (isinstance(text, str) and is_name(text) and text.strip(WHITESPACE) == text):
        raise IllFormedEntryError(f"bad {kind} {text!r}")


def _member(record, index: int, of):
    """The member of(field) gives for field index of record, else IllFormedEntryError."""
    try:
        return of(record[index])
    except (KeyError, TypeError, ValueError):
        raise IllFormedEntryError(
            f"{record[0]!r} has {record._fields[index]} {record[index]!r}, "
            "equal to no member"
        ) from None


class Record(tuple):
    """A named tuple class that compiles nothing: the base of every record class.

    A subclass names its fields in its class line, and the defaults of the
    last ones, and declares __slots__ = () so that it stays a bare tuple:

        class PrepEntry(Record, fields="lemma kind zone role attained",
                        defaults=(None, None)):
            __slots__ = ()

    It then has what a class made by collections' named tuple factory has:
    _fields, _field_defaults, __match_args__, a read-only accessor per field
    (the factory's own tuplegetter), _make, _replace, _asdict, the repr and
    pickling.  The factory compiles a __new__ from source text for each
    class; this one __new__ serves every class, binding keywords and
    defaults.
    _make and _replace call the class, so a subclass's own __new__ checks
    their values as it checks a call's.
    """

    __slots__ = ()

    def __init_subclass__(cls, fields=None, defaults=(), **kwargs):
        super().__init_subclass__(**kwargs)
        if fields is None:  # a subclass of a record class keeps its fields
            return
        names = cls._fields = cls.__match_args__ = tuple(fields.split())
        cls._field_defaults = dict(zip(names[len(names) - len(defaults):], defaults))
        for index, name in enumerate(names):
            setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))

    def __new__(cls, *args, **kwargs):
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments "
                            f"but {len(args)} were given")
        free = names[len(args):]
        for name in kwargs:
            if name in free:
                continue
            if name in names:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        given = {**cls._field_defaults, **kwargs}
        try:
            return tuple.__new__(cls, args + tuple([given[name] for name in free]))
        except KeyError as exc:
            raise TypeError(
                f"{cls.__name__}() missing required argument: {exc.args[0]!r}"
            ) from None

    @classmethod
    def _make(cls, iterable):
        """cls called with the values in iterable, which must hold one per field."""
        values = tuple(iterable)
        if len(values) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
        return cls(*values)

    def _replace(self, /, **changes):
        """A copy of this record with the named fields changed."""
        result = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return result

    def _asdict(self):
        """A new dict of the fields, in order."""
        return dict(zip(self._fields, self))

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self):  # for pickle and copy
        return tuple(self)


# A record from a tuple of its fields, skipping the class's Python-level
# __new__: for hot paths, on fields its __new__ would accept (load_lexicon's
# shape memo) or on classes whose __new__ checks nothing.
_new = tuple.__new__


class MotionSemError(Exception):
    """Base class for all package errors."""


class FormatError(MotionSemError):
    """A data file (lexicon, rule base, corpus) is malformed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)

    def at_line(self, line: int) -> "FormatError":
        """This error tagged with line, unless it already names one."""
        if self.line is None:
            FormatError.__init__(self, self.args[0], line)
        return self


def read_data_file(path) -> io.StringIO:
    """The UTF-8 text of the file at path (a name or a path object) as lines.

    Newlines are universal and one leading byte-order mark is dropped; a
    byte that cannot be decoded raises FormatError naming its 1-based line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8").removeprefix("\ufeff"), newline=None)
    except UnicodeDecodeError as exc:
        before = io.StringIO(data[: exc.start].decode("utf-8"), newline=None)
        line = before.getvalue().count("\n") + 1
        raise FormatError(f"not UTF-8: byte 0x{data[exc.start]:02x}", line) from None


def read_bundled(name: str) -> io.StringIO:
    """read_data_file of DATA_DIR/name: bundled data is read from disk, not a zip."""
    return read_data_file(os.path.join(DATA_DIR, name))


def data_lines(source: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Number (from 1) and newline-cut text of each line not blank or a `#` comment.

    Blank is WHITESPACE alone: a line that starts with a no-break space is data.
    """
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        stripped = line.lstrip(WHITESPACE)
        if stripped and stripped[0] != "#":
            yield lineno, line


class IllFormedEntryError(FormatError):
    """An entry line misses a required field or carries a bad one."""


class UnknownNameError(IllFormedEntryError, ValueError):
    """A zone, phase, role or provenance label names no member.

    Raised by every from_label, so it is a ValueError there and a
    FormatError, tagged with its line, in every data file.
    """


class DuplicateLemmaError(FormatError):
    """The same lemma is defined twice for one part of speech."""


class UnlexicalizedClassError(FormatError):
    """A verb's begin/end zone pair is outside the class inventory."""


class UnknownLemmaError(MotionSemError):
    """A lemma is absent from the lexicon."""


class UnknownLanguageError(MotionSemError):
    """No lexicon is loaded for the requested language tag."""


class NotACoLVerbError(MotionSemError):
    """The verb is in the lexicon but is not a change-of-location verb."""


class InfelicitousError(MotionSemError):
    """No rule conclusion yields a well-formed trace for the combination."""


class AmbiguousRuleBaseError(MotionSemError):
    """Two applicable rules tie on strength and priority (rule_ids, sorted)."""

    def __init__(self, message: str, rule_ids: tuple[str, ...] = ()):
        super().__init__(message)
        self.rule_ids = rule_ids


# Names used on EXPECT-ERROR corpus lines and in CLI diagnostics.
WIRE_NAMES = {
    UnknownLemmaError: "UnknownLemma",
    UnknownLanguageError: "UnknownLanguage",
    NotACoLVerbError: "NotACoLVerb",
    InfelicitousError: "Infelicitous",
    AmbiguousRuleBaseError: "AmbiguousRuleBase",
}


def wire_name(exc: MotionSemError) -> str:
    """Stable identifier for an error, as written in corpus files."""
    for cls, name in WIRE_NAMES.items():
        if isinstance(exc, cls):
            return name
    if isinstance(exc, FormatError):
        return "FormatError"
    return type(exc).__name__
