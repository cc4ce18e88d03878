"""Corpus parsing and regression running."""

from __future__ import annotations

import io
import random
from importlib import resources

import pytest
from hypothesis import given, strategies as st

from motionsem.compose import MotionComplex, compose
from motionsem.corpus import parse_corpus, run_corpus
from motionsem.errors import IllFormedEntryError, MotionSemError, split_fields, wire_name
from motionsem.lexicon import default_lexicon
from motionsem.rules import default_rulebase

LEXICONS = {"fr": default_lexicon("fr"), "en": default_lexicon("en")}
RULES = default_rulebase()


def golden_cases():
    path = resources.files("motionsem.data").joinpath("golden.corpus")
    with path.open("r", encoding="utf-8") as fh:
        return parse_corpus(fh)


def parse(text: str):
    return parse_corpus(io.StringIO(text))


SIMPLE = """CASE one
INPUT\tsortir\tdans\tjardin\tfr
EXPECT jardin post inside interaction
EXPECT lref#sortir pre inside verb
EXPECT lref#sortir post proximal verb
END
"""


def test_parse_simple_case():
    (case,) = parse(SIMPLE)
    assert case.id == "one"
    assert case.complex.verb_lemma == "sortir"
    assert case.complex.language == "fr"
    assert len(case.expected_tuples) == 3
    assert case.expected_error is None


def test_input_accepts_spaces_without_tabs():
    (case,) = parse("CASE a\nINPUT sortir dans jardin fr\nEXPECT-ERROR X\nEND\n")
    assert case.complex.prep_lemma == "dans"


def test_input_tabs_allow_spaced_lemmas():
    (case,) = parse(
        "CASE a\nINPUT\tse baisser\tdans\tville\tfr\nEXPECT-ERROR NotACoLVerb\nEND\n"
    )
    assert case.complex.verb_lemma == "se baisser"


def check_round_trip(ground, separator):
    """A case for ground, its EXPECT lines written from compose(), passes."""
    derivation = compose(
        MotionComplex("sortir", "dans", ground, "mobile", "fr"), LEXICONS["fr"], RULES
    )
    expect = "".join(f"EXPECT {' '.join(t)}\n" for t in derivation.trace.tuples())
    fields = separator.join(["INPUT", "sortir", "dans", ground, "fr"])
    (case,) = parse(f"CASE a\n{fields}\n{expect}END\n")
    assert case.complex == derivation.complex
    assert set(case.expected_tuples) == set(derivation.trace.tuples())
    assert run_corpus([case], LEXICONS, RULES).ok


@pytest.mark.parametrize("separator", [" ", "\t"], ids=["spaces", "tabs"])
def test_input_keeps_a_no_break_space_in_a_name(separator):
    check_round_trip("jardin\u00a0public", separator)


@pytest.mark.parametrize("separator", [" ", "\t"], ids=["spaces", "tabs"])
@pytest.mark.parametrize("ground", ["jardin\u00a0", "\u00a0jardin"], ids=["ends", "starts"])
def test_expect_keeps_a_no_break_space_at_the_edge_of_a_ground(ground, separator):
    check_round_trip(ground, separator)


@given(st.text("ab \t\n\r\x0b\x0c\u00a0\u2003\x1c", max_size=12))
def test_expect_fields_are_cut_only_at_ascii_whitespace(text):
    # the cutter of EXPECT lines and of every other data format
    masked = text.replace("\u00a0", "x").replace("\u2003", "y").replace("\x1c", "z")
    fields = masked.split()
    expected = [
        f.replace("x", "\u00a0").replace("y", "\u2003").replace("z", "\x1c") for f in fields
    ]
    assert split_fields(text) == expected


def test_line_tag_is_cut_only_at_ascii_whitespace():
    (case,) = parse(" CASE \u00a0a\u00a0 \nINPUT sortir dans jardin fr\nEXPECT-ERROR X\nEND\n")
    assert case.id == "\u00a0a\u00a0"
    with pytest.raises(IllFormedEntryError) as err:
        parse("CASE a\nEND\u00a0\n")
    assert str(err.value) == "line 2: unknown line tag 'END\\xa0'"


# Names that `motionsem query` refuses.  A list of lines, unlike a file,
# can hold a line feed inside one, but only between tabs: among spaces it
# separates fields.
REFUSED_NAMES = {
    "nel": "jar\x85din",
    "line-separator": "jar\u2028din",
    "blank": "\u00a0\u2003",
    "newline": "jar\ndin",
    "escape": "a\x1bb",
    "erase-line": "D2\x1b[2Ki",
    "erase-line-alone": "\x1b[2K",
}


@pytest.mark.parametrize(
    "ground, separator",
    [
        pytest.param(ground, separator, id=f"{key}-{label}")
        for key, ground in REFUSED_NAMES.items()
        for label, separator in (("spaces", " "), ("tabs", "\t"))
        if key != "newline" or label == "tabs"
    ],
)
def test_input_refuses_a_name_that_query_refuses(ground, separator):
    fields = separator.join(["INPUT", "sortir", "dans", ground, "fr"])
    with pytest.raises(IllFormedEntryError) as err:
        parse_corpus(["CASE a\n", fields + "\n", "EXPECT-ERROR X\n", "END\n"])
    message = "line 2: motion complex field ground must be printable and not blank"
    assert str(err.value) == message


@pytest.mark.parametrize("separator", [" ", "\t"], ids=["spaces", "tabs"])
def test_input_refuses_the_reference_location_name_as_a_ground(separator):
    fields = separator.join(["INPUT", "sortir", "dans", "lref#sortir", "fr"])
    lines = ["# a comment\n", "CASE a\n", fields + "\n", "EXPECT-ERROR X\n", "END\n"]
    with pytest.raises(IllFormedEntryError) as err:
        parse_corpus(lines)
    message = "motion complex ground 'lref#sortir' is reserved for the reference location"
    assert str(err.value) == f"line 3: {message}" and err.value.line == 3
    lines[2] = lines[2].replace("lref#sortir", "lref#entrer")
    assert parse_corpus(lines)[0].complex.ground == "lref#entrer"


def test_input_drops_a_field_of_ascii_spaces():
    with pytest.raises(IllFormedEntryError) as err:
        parse("CASE a\nINPUT\tsortir\tdans\t \tfr\nEXPECT-ERROR X\nEND\n")
    assert str(err.value) == "line 2: INPUT needs <verb> <prep> <ground> <lang>"


def test_empty_corpus():
    assert parse("") == []
    report = run_corpus([], LEXICONS, RULES)
    assert report.ok and len(report.results) == 0


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("CASE a\nEND\n", "no INPUT"),
        ("CASE a\nINPUT sortir dans jardin fr\nEND\n", "no expectation"),
        ("INPUT sortir dans jardin fr\n", "outside any case"),
        (
            "CASE a\nINPUT sortir dans jardin fr\nINPUT entrer dans jardin fr\n"
            "EXPECT-ERROR X\nEND\n",
            "case 'a' has two INPUT lines",
        ),
        ("CASE a\nINPUT sortir dans\nEXPECT-ERROR X\nEND\n", "INPUT needs"),
        ("CASE a\nCASE b\n", "not closed"),
        ("CASE a\nINPUT sortir dans jardin fr\nEXPECT x y\nEND\n", "EXPECT needs"),
        ("CASE a\nWEIRD line\nEND\n", "unknown line tag"),
        ("CASE a\nINPUT sortir dans jardin fr\nEXPECT-ERROR X\n", "not closed"),
        (SIMPLE + SIMPLE, "repeated"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(IllFormedEntryError) as err:
        parse(text)
    assert fragment in str(err.value)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(IllFormedEntryError) as err:
        parse("CASE a\nINPUT sortir dans jardin\nEXPECT-ERROR X\nEND\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "expectations, line, message",
    [
        ("EXPECT-ERROR X\nEXPECT-ERROR Y\n", 4, "case 'a' has two EXPECT-ERROR lines"),
        (
            "EXPECT jardin post inside interaction\nEXPECT-ERROR X\n",
            5,
            "case 'a' mixes EXPECT and EXPECT-ERROR",
        ),
    ],
    ids=["two-errors", "mixed"],
)
def test_clashing_expectations_name_their_line(expectations, line, message):
    with pytest.raises(IllFormedEntryError) as err:
        parse(f"CASE a\nINPUT sortir dans jardin fr\n{expectations}END\n")
    assert str(err.value) == f"line {line}: {message}" and err.value.line == line


def test_an_error_without_a_wire_name_goes_by_its_class_name():
    class Unlisted(MotionSemError):
        pass

    assert wire_name(MotionSemError("x")) == "MotionSemError"
    assert wire_name(Unlisted("x")) == "Unlisted"


def test_golden_corpus_passes():
    report = run_corpus(golden_cases(), LEXICONS, RULES)
    assert report.ok, report.render()
    assert report.passed == len(report.results) == 25


def test_wrong_expected_zone_fails_with_diff():
    text = SIMPLE.replace("jardin post inside interaction", "jardin post contact interaction")
    report = run_corpus(parse(text), LEXICONS, RULES)
    assert report.failed == 1
    (result,) = report.results
    assert ("jardin", "post", "contact", "interaction") in result.missing
    assert ("jardin", "post", "inside", "interaction") in result.unexpected
    assert "missing" in report.render()


def test_expected_error_cases():
    ok = parse("CASE a\nINPUT sortir zzz jardin fr\nEXPECT-ERROR UnknownLemma\nEND\n")
    report = run_corpus(ok, LEXICONS, RULES)
    assert report.ok

    wrong = parse("CASE a\nINPUT sortir zzz jardin fr\nEXPECT-ERROR Infelicitous\nEND\n")
    report = run_corpus(wrong, LEXICONS, RULES)
    assert report.failed == 1

    unexpected = parse("CASE a\nINPUT sortir zzz jardin fr\nEXPECT jardin post inside prep\nEND\n")
    report = run_corpus(unexpected, LEXICONS, RULES)
    assert report.errored == 1


def test_error_when_derivation_expected_error():
    text = "CASE a\nINPUT sortir dans jardin fr\nEXPECT-ERROR UnknownLemma\nEND\n"
    report = run_corpus(parse(text), LEXICONS, RULES)
    assert report.failed == 1


def test_unknown_language_is_an_error_case():
    # the language tag is only checked against loaded lexicons at run time
    (case,) = parse("CASE a\nINPUT sortir dans jardin fr\nEXPECT-ERROR X\nEND\n")
    report = run_corpus([case], {"en": LEXICONS["en"]}, RULES)
    assert report.failed == 1  # UnknownLanguage != X


def test_counts_always_sum_to_total():
    cases = golden_cases()
    report = run_corpus(cases, LEXICONS, RULES)
    assert report.passed + report.failed + report.errored == len(cases)


def test_run_is_order_independent():
    cases = golden_cases()
    shuffled = cases[:]
    random.Random(7).shuffle(shuffled)
    base = run_corpus(cases, LEXICONS, RULES)
    other = run_corpus(shuffled, LEXICONS, RULES)
    assert base.rule_histogram == other.rule_histogram
    assert {r.case_id: r for r in base.results} == {
        r.case_id: r for r in other.results
    }


def test_report_rendering_is_deterministic():
    report = run_corpus(golden_cases(), LEXICONS, RULES)
    again = run_corpus(golden_cases(), LEXICONS, RULES)
    assert report.render() == again.render()
    assert "fired rules:" in report.render()
