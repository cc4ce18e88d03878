"""Golden-corpus regression runs over motion complexes.

Corpus files are line oriented:

    CASE <id>
    INPUT <verb> <prep> <ground> <lang>
    EXPECT <location> <phase> <zone> <provenance>
    EXPECT-ERROR <name>
    END

Lines are cut and stripped at ASCII whitespace only (errors.split_fields),
as in every data file, and a case id, each INPUT name, a location and an
error name are names (errors.is_name).  INPUT fields are tab separated
when the line contains a tab (lemmas may hold spaces) and separated by
ASCII whitespace otherwise.  EXPECT
lines mirror the trace record lines: the last three fields are the
phase, zone and provenance labels, in any ASCII case (an unknown one
raises UnknownNameError, as in every data file), and all before them is
the location, which may hold spaces.  A case expects either assignment
tuples or one error name, never both.
"""

from collections.abc import Iterable

from .compose import MotionComplex, check_names, compose
from .errors import (
    FormatError,
    IllFormedEntryError,
    MotionSemError,
    Record,
    WHITESPACE,
    _check_name,
    data_lines,
    is_name,
    split_fields,
    wire_name,
)
from .lexicon import Lexicon, lookup_lexicon
from .rules import RuleBase
from .trace import Provenance
from .zones import Phase, Zone


# The (phase, zone, provenance) labels of an EXPECT line, as parse_corpus holds them.
_LABELS = frozenset((p.label, z.label, v.label) for p in Phase for z in Zone for v in Provenance)


class CorpusCase(
    Record, fields="id complex expected_tuples expected_error", defaults=((), None)
):
    """One case: a MotionComplex and either its tuples or an error name.

    It holds what parse_corpus gives, else raises IllFormedEntryError in its
    words: a name as id and error name, a MotionComplex of str names, and a
    tuple of (location, phase, zone, provenance) tuples, a name and labels.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = case_id, complex_, tuples, error = super().__new__(cls, *args, **kwargs)
        _check_name(case_id, "case id")
        if complex_ is None:
            raise IllFormedEntryError(f"case {case_id!r} has no INPUT line")
        if not (isinstance(complex_, MotionComplex) and all(type(f) is str for f in complex_)):
            raise IllFormedEntryError(f"bad complex {complex_!r}")
        try:
            check_names(complex_)
        except ValueError as exc:
            raise IllFormedEntryError(str(exc)) from None
        if not (type(tuples) is tuple and all(
            type(t) is tuple and len(t) == 4 and all(type(f) is str for f in t)
            and is_name(t[0]) and t[1:] in _LABELS for t in tuples
        )):
            raise IllFormedEntryError(f"bad expected tuples {tuples!r}")
        if error is not None and tuples:
            raise IllFormedEntryError(f"case {case_id!r} mixes EXPECT and EXPECT-ERROR")
        if error is None and not tuples:
            raise IllFormedEntryError(f"case {case_id!r} has no expectation")
        if error is not None:
            _check_name(error, "error name")
        return self


class CaseResult(
    Record,
    fields="case_id status fired_rule missing unexpected detail",
    defaults=(None, (), (), ""),
):
    """The outcome of one case; status is "pass", "fail" or "error"."""

    __slots__ = ()


class CorpusReport(Record, fields="results rule_histogram"):
    """Every case's result, in corpus order, and how often each rule fired."""

    __slots__ = ()

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
    if "\t" not in rest:
        return split_fields(rest)
    fields = [field.strip(WHITESPACE) for field in rest.split("\t")]
    return [field for field in fields if field]


def parse_corpus(source: Iterable[str]) -> list[CorpusCase]:
    """Parse the lines of a corpus into its cases.

    Errors carry line numbers; a case left open at the end of the file
    names its CASE line.  Every mobile is "mobile".
    """
    cases: list[CorpusCase] = []
    seen_ids: set[str] = set()

    case_id: str | None = None
    case_line = 0
    complex_: MotionComplex | None = None
    tuples: list[tuple[str, str, str, str]] = []
    error_name: str | None = None

    for lineno, line in data_lines(source):
        line = line.strip(WHITESPACE)
        tag = split_fields(line)[0]  # data_lines gives no blank line
        rest = line[len(tag) :].lstrip(WHITESPACE)
        try:
            if tag == "CASE":
                if case_id is not None:
                    raise IllFormedEntryError(
                        f"case {case_id!r} (line {case_line}) not closed with END"
                    )
                if not rest:
                    raise IllFormedEntryError("CASE line needs an id")
                _check_name(rest, "case id")
                case_id = rest
                case_line = lineno
                if case_id in seen_ids:
                    raise IllFormedEntryError(f"case id {case_id!r} repeated")
                seen_ids.add(case_id)
            elif case_id is None:
                raise IllFormedEntryError(f"{tag!r} line outside any case")
            elif tag == "INPUT":
                if complex_ is not None:
                    raise IllFormedEntryError(f"case {case_id!r} has two INPUT lines")
                parts = _split_input(rest)
                if len(parts) != 4:
                    raise IllFormedEntryError(
                        "INPUT needs <verb> <prep> <ground> <lang>"
                    )
                try:
                    complex_ = MotionComplex(*parts[:3], "mobile", parts[3])
                    check_names(complex_)
                except ValueError as exc:
                    raise IllFormedEntryError(str(exc)) from None
            elif tag == "EXPECT":
                fields = split_fields(rest)
                if len(fields) < 4:
                    raise IllFormedEntryError(
                        "EXPECT needs <location> <phase> <zone> <provenance>"
                    )
                location, (phase, zone, prov) = rest, fields[-3:]
                for field in (prov, zone, phase):  # the location keeps its spacing
                    location = location.removesuffix(field).rstrip(WHITESPACE)
                if not is_name(location):
                    raise IllFormedEntryError(f"bad location {location!r}")
                tuples.append((location, Phase.from_label(phase).label,
                               Zone.from_label(zone).label, Provenance.from_label(prov).label))
            elif tag == "EXPECT-ERROR":
                if error_name is not None:
                    raise IllFormedEntryError(
                        f"case {case_id!r} has two EXPECT-ERROR lines"
                    )
                if not rest:
                    raise IllFormedEntryError("EXPECT-ERROR needs a name")
                _check_name(rest, "error name")
                error_name = rest
            elif tag == "END":
                cases.append(CorpusCase(case_id, complex_, tuple(tuples), error_name))
                case_id, complex_, tuples, error_name = None, None, [], None
            else:
                raise IllFormedEntryError(f"unknown line tag {tag!r}")
        except FormatError as exc:
            raise exc.at_line(lineno)

    if case_id is not None:
        raise IllFormedEntryError(f"case {case_id!r} not closed with END", case_line)
    return cases


def run_case(
    case: CorpusCase, lexicons: dict[str, Lexicon], rules: RuleBase
) -> CaseResult:
    """Evaluate one case; never raises for in-case semantic errors."""
    try:
        lexicon = lookup_lexicon(lexicons, case.complex.language)
        derivation = compose(case.complex, lexicon, rules)
    except MotionSemError as exc:
        name = wire_name(exc)
        if case.expected_error == name:
            return CaseResult(case.id, "pass", detail=name)
        if case.expected_error is not None:
            detail = f"expected error {case.expected_error}, got {name}: {exc}"
            return CaseResult(case.id, "fail", detail=detail)
        return CaseResult(case.id, "error", detail=f"{name}: {exc}")

    if case.expected_error is not None:
        detail = f"expected error {case.expected_error}, got a derivation"
        return CaseResult(case.id, "fail", fired_rule=derivation.fired.id, detail=detail)

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
    return CorpusReport(results, histogram)
