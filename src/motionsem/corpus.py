"""Golden-corpus regression runs over motion complexes.

Corpus files are line oriented:

    CASE <id>
    INPUT <verb> <prep> <ground> <lang>
    EXPECT <location> <phase> <zone> <provenance>
    EXPECT-ERROR <name>
    END

INPUT fields are tab separated when the line contains a tab (lemmas may
hold spaces) and whitespace separated otherwise.  EXPECT lines mirror
the trace record lines; a case expects either assignment tuples or one
error name, never both.
"""

from __future__ import annotations

from typing import NamedTuple

from .compose import MotionComplex, compose
from .errors import (
    IllFormedEntryError,
    MotionSemError,
    UnknownLanguageError,
    wire_name,
)
from .lexicon import Lexicon
from .rules import RuleBase

Tuple4 = tuple[str, str, str, str]


class CorpusCase(NamedTuple):
    id: str
    complex: MotionComplex
    expected_tuples: tuple[Tuple4, ...] = ()
    expected_error: str | None = None


class CaseResult(NamedTuple):
    case_id: str
    status: str  # "pass" | "fail" | "error"
    fired_rule: str | None = None
    missing: tuple[Tuple4, ...] = ()
    unexpected: tuple[Tuple4, ...] = ()
    detail: str = ""


class CorpusReport(NamedTuple):
    results: tuple[CaseResult, ...]
    rule_histogram: dict[str, int]

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.status == "fail")

    @property
    def errored(self) -> int:
        return sum(1 for r in self.results if r.status == "error")

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.errored == 0

    def render(self) -> str:
        total = len(self.results)
        lines = [
            f"cases: {total}  pass: {self.passed}  fail: {self.failed}  "
            f"error: {self.errored}"
        ]
        for r in self.results:
            if r.status == "pass":
                continue
            lines.append(f"{r.status.upper()} {r.case_id}: {r.detail}")
            for t in r.missing:
                lines.append(f"  missing    {' '.join(t)}")
            for t in r.unexpected:
                lines.append(f"  unexpected {' '.join(t)}")
        if self.rule_histogram:
            lines.append("fired rules:")
            for rule_id in sorted(self.rule_histogram):
                lines.append(f"  {rule_id}: {self.rule_histogram[rule_id]}")
        return "\n".join(lines)


def _split_input(rest: str) -> list[str]:
    if "\t" in rest:
        return [f.strip() for f in rest.split("\t") if f.strip()]
    return rest.split()


def parse_corpus(source, default_mobile: str = "mobile") -> list[CorpusCase]:
    """Parse a corpus stream; errors carry line numbers."""
    cases: list[CorpusCase] = []
    seen_ids: set[str] = set()

    case_id: str | None = None
    case_line = 0
    complex_: MotionComplex | None = None
    tuples: list[Tuple4] = []
    error_name: str | None = None

    def finish(lineno: int):
        nonlocal case_id, complex_, tuples, error_name
        if complex_ is None:
            raise IllFormedEntryError(f"case {case_id!r} has no INPUT line", lineno)
        if error_name is not None and tuples:
            raise IllFormedEntryError(
                f"case {case_id!r} mixes EXPECT and EXPECT-ERROR", lineno
            )
        if error_name is None and not tuples:
            raise IllFormedEntryError(f"case {case_id!r} has no expectation", lineno)
        cases.append(
            CorpusCase(
                id=case_id,
                complex=complex_,
                expected_tuples=tuple(tuples),
                expected_error=error_name,
            )
        )
        case_id, complex_, tuples, error_name = None, None, [], None

    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\n").strip()
        if not line or line.startswith("#"):
            continue
        head = line.split(None, 1)
        tag = head[0]
        rest = head[1] if len(head) > 1 else ""

        if tag == "CASE":
            if case_id is not None:
                raise IllFormedEntryError(
                    f"case {case_id!r} (line {case_line}) not closed with END", lineno
                )
            if not rest.strip():
                raise IllFormedEntryError("CASE line needs an id", lineno)
            case_id = rest.strip()
            case_line = lineno
            if case_id in seen_ids:
                raise IllFormedEntryError(f"case id {case_id!r} repeated", lineno)
            seen_ids.add(case_id)
        elif case_id is None:
            raise IllFormedEntryError(f"{tag!r} line outside any case", lineno)
        elif tag == "INPUT":
            if complex_ is not None:
                raise IllFormedEntryError(f"case {case_id!r} has two INPUT lines", lineno)
            parts = _split_input(rest)
            if len(parts) != 4:
                raise IllFormedEntryError(
                    "INPUT needs <verb> <prep> <ground> <lang>", lineno
                )
            try:
                complex_ = MotionComplex(
                    verb_lemma=parts[0],
                    prep_lemma=parts[1],
                    ground=parts[2],
                    mobile=default_mobile,
                    language=parts[3],
                )
            except ValueError as exc:
                raise IllFormedEntryError(str(exc), lineno) from None
        elif tag == "EXPECT":
            parts = rest.split()
            if len(parts) != 4:
                raise IllFormedEntryError(
                    "EXPECT needs <location> <phase> <zone> <provenance>", lineno
                )
            tuples.append((parts[0], parts[1], parts[2], parts[3]))
        elif tag == "EXPECT-ERROR":
            if error_name is not None:
                raise IllFormedEntryError(
                    f"case {case_id!r} has two EXPECT-ERROR lines", lineno
                )
            if not rest.strip():
                raise IllFormedEntryError("EXPECT-ERROR needs a name", lineno)
            error_name = rest.strip()
        elif tag == "END":
            finish(lineno)
        else:
            raise IllFormedEntryError(f"unknown line tag {tag!r}", lineno)

    if case_id is not None:
        raise IllFormedEntryError(f"case {case_id!r} not closed with END", case_line)
    return cases


def parse_corpus_path(path: str) -> list[CorpusCase]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_corpus(fh)


def run_case(
    case: CorpusCase, lexicons: dict[str, Lexicon], rules: RuleBase
) -> CaseResult:
    """Evaluate one case; never raises for in-case semantic errors."""
    try:
        lexicon = lexicons.get(case.complex.language)
        if lexicon is None:
            raise UnknownLanguageError(
                f"no lexicon loaded for {case.complex.language!r}"
            )
        derivation = compose(case.complex, lexicon, rules)
    except MotionSemError as exc:
        name = wire_name(exc)
        if case.expected_error == name:
            return CaseResult(case.id, "pass", detail=name)
        if case.expected_error is not None:
            return CaseResult(
                case.id,
                "fail",
                detail=f"expected error {case.expected_error}, got {name}: {exc}",
            )
        return CaseResult(case.id, "error", detail=f"{name}: {exc}")

    if case.expected_error is not None:
        return CaseResult(
            case.id,
            "fail",
            fired_rule=derivation.fired.id,
            detail=f"expected error {case.expected_error}, got a derivation",
        )

    actual = set(derivation.trace.tuples())
    expected = set(case.expected_tuples)
    if actual == expected:
        return CaseResult(case.id, "pass", fired_rule=derivation.fired.id)
    missing = tuple(sorted(expected - actual))
    unexpected = tuple(sorted(actual - expected))
    return CaseResult(
        case.id,
        "fail",
        fired_rule=derivation.fired.id,
        missing=missing,
        unexpected=unexpected,
        detail="assignment tuples differ",
    )


def run_corpus(
    cases: list[CorpusCase], lexicons: dict[str, Lexicon], rules: RuleBase
) -> CorpusReport:
    """Run every case and assemble a deterministic report.

    Evaluation of one case never aborts the run; only parse errors do,
    and those happen before this function is reached.  Case results keep
    corpus order, so shuffled corpora differ only in ordering.
    """
    results = tuple(run_case(case, lexicons, rules) for case in cases)
    histogram: dict[str, int] = {}
    for r in results:
        if r.fired_rule is not None and r.status != "error":
            histogram[r.fired_rule] = histogram.get(r.fired_rule, 0) + 1
    return CorpusReport(results=results, rule_histogram=histogram)
