"""Errors raised across the package, with the wire names used in corpus files.

An unknown zone, phase, role or provenance name raises one error,
UnknownNameError, with one wording, whichever file or call it comes from.
Also holds the one reader of data files, given or bundled in DATA_DIR, and
the one line loop of their parsers, so that all four formats load alike.
"""

from __future__ import annotations

import io
import os
from collections.abc import Iterable, Iterator

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# ASCII only: str.strip() also takes U+00A0, which a name may hold, so every
# loader decides blank and comment lines and cuts its tags at these alone.
WHITESPACE = " \t\n\r\x0b\x0c"


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
