"""Errors raised across the package, with the wire names used in corpus files.

Also holds the one reader of data files, so that every parser reports
undecodable bytes as a line-numbered FormatError.
"""

from __future__ import annotations

import io


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


def read_data_file(path: str) -> io.StringIO:
    """A data file's UTF-8 text as a line stream with universal newlines.

    A byte sequence that is not UTF-8 raises FormatError carrying the
    1-based line of its first byte.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        before = io.StringIO(data[: exc.start].decode("utf-8"), newline=None)
        line = before.getvalue().count("\n") + 1
        raise FormatError(f"not UTF-8: byte 0x{data[exc.start]:02x}", line) from None


class IllFormedEntryError(FormatError):
    """An entry line misses a required field or carries a bad one."""


class UnknownZoneNameError(FormatError):
    """A zone tag is not one of the four fixed names."""


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
    """Two applicable rules tie on strength and priority."""


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
