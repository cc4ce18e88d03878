"""Corpus parsing and regression running."""

from __future__ import annotations

import io
import random
from importlib import resources

import pytest
from hypothesis import assume, given, strategies as st

from motionsem import corpus
from motionsem.compose import MotionComplex, compose
from motionsem.corpus import parse_corpus, run_corpus
from motionsem.errors import IllFormedEntryError
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


@given(st.text("ab \t\x0b\u00a0\u2003", max_size=12), st.integers(0, 4))
def test_expect_fields_are_cut_only_at_ascii_whitespace(text, count):
    # parse_corpus passes a text stripped at ASCII whitespace
    text = text.strip(" \t\x0b")
    assume(text)
    masked = text.replace("\u00a0", "x").replace("\u2003", "y")
    fields = masked.rsplit(None, count)
    expected = [f.replace("x", "\u00a0").replace("y", "\u2003") for f in fields]
    assert corpus._rsplit(text, count) == expected


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
