"""CLI subcommands, output stability, and the published exit codes."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import unicodedata
from importlib import resources

import pytest
from hypothesis import given, strategies as st

from motionsem import cli, default_lexicon, default_rulebase, load_lexicon
from motionsem.compose import MotionComplex, compose, explain
from motionsem.errors import _SPACE_SEPARATORS
from motionsem.trace import render_records

GOLDEN = str(resources.files("motionsem.data").joinpath("golden.corpus"))
EN_LEXICON = str(resources.files("motionsem.data").joinpath("en.lex"))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

# rule bases written to the working directory of test_query_error_exit_codes
QUERY_RULES = {
    "no-positional.rules": "R\tD4\tdefeasible\t1\tprepkind=dir\tbind(post)\n",
    "tie.rules": (
        "R\tA\tdefeasible\t1\tprepkind=pos\tidentify\n"
        "R\tB\tdefeasible\t1\tprepkind=pos\tbind(post)\n"
    ),
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(args, cwd, env_extra=(), **kwargs):
    """A python child with args, importing motionsem from this checkout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **dict(env_extra))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, **kwargs)


def test_query_worked_example(capsys):
    code, out, _ = run(capsys, "query", "sortir", "dans", "jardin", "--lang", "fr")
    assert code == 0
    assert "jardin post inside interaction" in out
    assert "Interaction" in out


def test_query_english_counterpart(capsys):
    code, out, _ = run(capsys, "query", "go-out", "into", "garden", "--lang", "en")
    assert code == 0
    assert "garden post inside prep" in out
    assert "interaction" not in out.lower()


def test_query_records_format(capsys):
    code, out, _ = run(
        capsys, "query", "entrer", "dans", "jardin", "--lang", "fr",
        "--format", "records",
    )
    assert code == 0
    assert out == (
        "mobile mobile\n"
        "lref jardin\n"
        "ground jardin\n"
        "jardin pre proximal verb\n"
        "jardin post inside verb\n"
    )


def test_query_output_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "query", "sortir", "dans", "jardin")
    _, second, _ = run(capsys, "query", "sortir", "dans", "jardin")
    assert first == second


@pytest.mark.parametrize(
    "argv, expected_code, fragment",
    [
        (("query", "sortir", "zzz", "jardin"), cli.EXIT_UNKNOWN_LEMMA, "zzz"),
        (("query", "zzz", "dans", "jardin"), cli.EXIT_UNKNOWN_LEMMA, "zzz"),
        (("query", "voyager", "dans", "ville"), cli.EXIT_NOT_COL, "CoPs"),
        (("query", "sortir", "dans", "jardin", "--lexicon", "/no/such/file"),
         cli.EXIT_LOAD_ERROR, "no/such/file"),
        (("query", "sortir", "dans", "jardin", "--lexicon", EN_LEXICON),
         cli.EXIT_UNKNOWN_LEMMA, "no lexicon loaded for 'fr'"),
        (("query", "sortir", "dans", "jardin", "--rules", "no-positional.rules"),
         cli.EXIT_INFELICITOUS, "no rule yields a well-formed trace"),
        (("query", "sortir", "dans", "jardin", "--rules", "tie.rules"),
         cli.EXIT_AMBIGUOUS, "rules A, B tie on strength and priority"),
    ],
)
def test_query_error_exit_codes(
    tmp_path, monkeypatch, capsys, argv, expected_code, fragment
):
    for name, text in QUERY_RULES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == expected_code
    assert fragment in err


@pytest.mark.parametrize(
    "field, argv",
    [
        ("verb_lemma", ("", "dans", "jardin")),
        ("prep_lemma", ("sortir", "", "jardin")),
        ("ground", ("sortir", "dans", "")),
        ("mobile", ("sortir", "dans", "jardin", "--mobile", "")),
    ],
    ids=["verb", "prep", "ground", "mobile"],
)
def test_query_empty_field_is_a_usage_error(capsys, field, argv):
    code, out, err = run(capsys, "query", *argv)
    message = f"error: motion complex field {field} must be nonempty\n"
    assert (code, out, err) == (cli.EXIT_LOAD_ERROR, "", message)


@pytest.mark.parametrize(
    "field, argv",
    [
        ("verb_lemma", (" ", "dans", "jardin")),
        ("prep_lemma", ("sortir", "\t", "jardin")),
        ("ground", ("sortir", "dans", " ")),
        ("ground", ("sortir", "dans", "\u00a0\u2003")),
        ("ground", ("sortir", "dans", "jar\ndin")),
        ("ground", ("sortir", "dans", "jar\x85din")),
        ("ground", ("sortir", "dans", "jar\u2028din")),
        ("mobile", ("sortir", "dans", "jardin", "--mobile", "  ")),
        ("mobile", ("sortir", "dans", "jardin", "--mobile", "la\tballe")),
    ],
    ids=["verb", "prep", "ground", "ground-nbsp", "ground-newline", "ground-nel",
         "ground-line-separator", "mobile", "mobile-tab"],
)
def test_query_blank_or_unprintable_field_is_a_usage_error(capsys, field, argv):
    code, out, err = run(capsys, "query", *argv)
    message = f"error: motion complex field {field} must be printable and not blank\n"
    assert (code, out, err) == (cli.EXIT_LOAD_ERROR, "", message)


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_query_refuses_the_reference_location_name_as_a_ground(capsys, fmt):
    code, out, err = run(capsys, "query", "sortir", "dans", "lref#sortir", "--format", fmt)
    message = "motion complex ground 'lref#sortir' is reserved for the reference location"
    assert (code, out, err) == (cli.EXIT_LOAD_ERROR, "", f"error: {message}\n")
    code, out, err = run(capsys, "query", "sortir", "dans", "lref#entrer", "--format", fmt)
    assert code == cli.EXIT_OK and "lref#entrer" in out and err == ""


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_query_takes_a_no_break_space_in_a_name(capsys, fmt):
    ground = "jardin\u00a0public"
    code, out, err = run(capsys, "query", "sortir", "dans", ground, "--format", fmt)
    derivation = compose(
        MotionComplex("sortir", "dans", ground, "mobile", "fr"),
        default_lexicon("fr"),
        default_rulebase(),
    )
    expected = render_records(derivation.trace) if fmt == "records" else explain(derivation)
    assert (code, out, err) == (cli.EXIT_OK, expected + "\n", "")


def test_query_finds_a_lemma_that_ends_in_a_no_break_space(tmp_path, capsys):
    verb = "sortir\u00a0"
    text = f"LANG\tfr\nV\t{verb}\tCoL\tinitial\tinside\tproximal\nP\tdans\tpos\tinside\n"
    lex = tmp_path / "nbsp.lex"
    lex.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "query", verb, "dans", "jardin", "--lexicon", str(lex))
    derivation = compose(
        MotionComplex(verb, "dans", "jardin", "mobile", "fr"),
        load_lexicon(io.StringIO(text)),
        default_rulebase(),
    )
    assert "lref#sortir\u00a0" in derivation.trace.lref
    assert (code, out, err) == (cli.EXIT_OK, explain(derivation) + "\n", "")


def test_space_separators_are_the_unicode_zs_category():
    zs = {
        point for point in range(sys.maxunicode + 1)
        if unicodedata.category(chr(point)) == "Zs"
    }
    assert set(_SPACE_SEPARATORS) == zs - {ord(" ")}
    assert set(_SPACE_SEPARATORS.values()) == {" "}


def test_exit_codes_are_distinct():
    codes = {
        cli.EXIT_OK,
        cli.EXIT_CORPUS_FAILURES,
        cli.EXIT_LOAD_ERROR,
        cli.EXIT_UNKNOWN_LEMMA,
        cli.EXIT_NOT_COL,
        cli.EXIT_INFELICITOUS,
        cli.EXIT_AMBIGUOUS,
        cli.EXIT_BROKEN_PIPE,
    }
    assert len(codes) == 8
    assert cli.EXIT_OK == 0 and 0 not in codes - {cli.EXIT_OK}


def test_corpus_golden_passes(capsys):
    code, out, _ = run(capsys, "corpus", GOLDEN)
    assert code == 0
    assert "fail: 0" in out and "error: 0" in out


def test_corpus_expect_takes_a_spaced_location_and_any_case(tmp_path, capsys):
    spaced = tmp_path / "spaced.corpus"
    spaced.write_text(
        "CASE spaced\n"
        "INPUT\tsortir\tdans\tla maison\tfr\n"
        "EXPECT la maison POST Inside interaction\n"
        "EXPECT lref#sortir pre inside Verb\n"
        "EXPECT lref#sortir post proximal verb\n"
        "END\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "corpus", str(spaced))
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == "cases: 1  pass: 1  fail: 0  error: 0\nfired rules:\n  D2i: 1\n"


def test_corpus_failure_exit_and_diff(tmp_path, capsys):
    bad = tmp_path / "bad.corpus"
    bad.write_text(
        "CASE wrong\n"
        "INPUT sortir dans jardin fr\n"
        "EXPECT jardin post contact interaction\n"
        "END\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "corpus", str(bad))
    assert code == cli.EXIT_CORPUS_FAILURES
    assert "missing" in out and "unexpected" in out


def test_corpus_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "broken.corpus"
    bad.write_text("CASE x\nINPUT too few\nEND\n", encoding="utf-8")
    code, _, err = run(capsys, "corpus", str(bad))
    assert code == cli.EXIT_LOAD_ERROR
    assert "line 2" in err


def test_empty_corpus_exits_zero(tmp_path, capsys):
    empty = tmp_path / "empty.corpus"
    empty.write_text("", encoding="utf-8")
    code, out, _ = run(capsys, "corpus", str(empty))
    assert code == 0
    assert "cases: 0" in out


def test_lint_shipped_data(capsys):
    code, out, _ = run(capsys, "lint")
    assert code == 0
    assert "complete" in out


def test_lint_reports_gaps(tmp_path, capsys):
    rules = tmp_path / "partial.rules"
    rules.write_text(
        "R\tD4\tdefeasible\t1\tprepkind=dir\tbind(post)\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, "lint", "--rules", str(rules))
    assert code == cli.EXIT_LOAD_ERROR
    assert "gaps (3 cells)" in out


def test_lint_fails_a_base_that_fails_at_run_time(tmp_path, capsys):
    rules = tmp_path / "witness.rules"
    rules.write_text(
        "R\tF\tstrict\t90\tprepkind=pos\tforbid(identify)\n"
        "R\tA\tdefeasible\t10\tprepkind=pos\tbind(post)\n"
        "R\tB\tdefeasible\t10\tprepkind=pos\tbind(pre)\n"
        "R\tI\tdefeasible\t5\tprepkind=dir\tidentify\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "lint", "--rules", str(rules))
    assert code == cli.EXIT_LOAD_ERROR
    assert "gaps (9 cells):" in out and "possible ties (3):" in out
    assert "  initial x pos: A/B\n" in out
    query = ("query", "--rules", str(rules))
    assert run(capsys, *query, "sortir", "dans", "jardin")[0] == cli.EXIT_AMBIGUOUS
    assert run(capsys, *query, "entrer", "vers", "jardin")[0] == cli.EXIT_INFELICITOUS


def test_lint_duplicate_lexicon_lemma(tmp_path, capsys):
    lex = tmp_path / "dup.lex"
    lex.write_text(
        "LANG\tfr\nP\tdans\tpos\tinside\nP\tdans\tpos\tcontact\n", encoding="utf-8"
    )
    code, _, err = run(capsys, "lint", "--lexicon", str(lex))
    assert code == cli.EXIT_LOAD_ERROR
    assert "line 3" in err and "dans" in err


def test_custom_lexicon_flag(tmp_path, capsys):
    lex = tmp_path / "mini.lex"
    lex.write_text(
        "LANG\tfr\n"
        "V\tsortir\tCoL\tinitial\tinside\tproximal\n"
        "P\tdans\tpos\tinside\n",
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, "query", "sortir", "dans", "jardin", "--lexicon", str(lex)
    )
    assert code == 0
    assert "jardin post inside interaction" in out


def test_query_missing_language(tmp_path, capsys):
    lex = tmp_path / "only_en.lex"
    lex.write_text("LANG\ten\nP\tin\tpos\tinside\n", encoding="utf-8")
    code, _, err = run(
        capsys, "query", "sortir", "dans", "jardin", "--lexicon", str(lex), "--lang", "fr"
    )
    assert code == cli.EXIT_UNKNOWN_LEMMA
    assert "fr" in err


@pytest.mark.parametrize(
    "argv, err",
    [
        (["query", "sortir", "dans", "jardin"], "error: two lexicons given for 'fr'\n"),
        (["lint"], "lexicon error: two lexicons given for 'fr'\n"),
    ],
    ids=["query", "lint"],
)
def test_two_lexicons_of_one_language_are_a_load_error(capsys, argv, err):
    # the error spans two files, so it names no line
    fr = str(resources.files("motionsem.data").joinpath("fr.lex"))
    assert run(capsys, *argv, "--lexicon", fr, "--lexicon", fr) == (
        cli.EXIT_LOAD_ERROR, "", err
    )


@pytest.mark.parametrize(
    "name, data, argv, message",
    [
        (
            "bad.lex",
            b"LANG\tfr\nP\tda\xffns\tpos\tinside\n",
            ("query", "x", "y", "z", "--lexicon"),
            "error: line 2: not UTF-8: byte 0xff",
        ),
        (
            "bad.rules",
            b"VERSION\t1\r\n\r\nR\tD\tdefeasible\t1\tprepkind=dir\tid\xc3\n",
            ("lint", "--rules"),
            "rule base error: line 3: not UTF-8: byte 0xc3",
        ),
        (
            "bad.corpus",
            b"CASE x\nINPUT a b c fr\nEND\n\xff\n",
            ("corpus",),
            "error: line 4: not UTF-8: byte 0xff",
        ),
    ],
    ids=["lexicon", "rules", "corpus"],
)
def test_non_utf8_data_file_is_a_load_error(tmp_path, capsys, name, data, argv, message):
    bad = tmp_path / name
    bad.write_bytes(data)
    code, _, err = run(capsys, *argv, str(bad))
    assert code == cli.EXIT_LOAD_ERROR
    assert err == message + "\n"


def test_non_utf8_bundled_file_is_a_load_error(bundled_data, capsys):
    inventory = bundled_data / "col_classes.txt"
    inventory.write_bytes(b"# caf\xe9\n" + inventory.read_bytes())
    code, out, err = run(capsys, "query", "sortir", "dans", "jardin")
    assert (code, out) == (cli.EXIT_LOAD_ERROR, "")
    assert err == "error: line 1: not UTF-8: byte 0xe9\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (("query", "sortir", "dans", "jardin"), "error: line 2: not UTF-8: byte 0xff\n"),
        (("lint",), "rule base error: line 2: not UTF-8: byte 0xff\n"),
    ],
    ids=["query", "lint"],
)
def test_non_utf8_bundled_rules_are_a_load_error(bundled_data, capsys, argv, err):
    (bundled_data / "default.rules").write_bytes(b"VERSION\t1\n\xff\n")
    code, _, actual = run(capsys, *argv)
    assert (code, actual) == (cli.EXIT_LOAD_ERROR, err)


def test_query_reads_only_the_bundled_lexicon_of_its_language(bundled_data, capsys):
    intact = run(capsys, "query", "sortir", "dans", "jardin")
    assert intact[0] == cli.EXIT_OK
    (bundled_data / "en.lex").write_text("LANG\ten\nV\tbroken\n", encoding="utf-8")
    assert run(capsys, "query", "sortir", "dans", "jardin") == intact
    # corpus and lint still load, and so check, both seed lexicons
    message = "line 2: verb line needs at least a lemma and category\n"
    assert run(capsys, "corpus", GOLDEN) == (cli.EXIT_LOAD_ERROR, "", "error: " + message)
    assert run(capsys, "lint") == (cli.EXIT_LOAD_ERROR, "", "lexicon error: " + message)


@pytest.mark.parametrize(
    "argv", [["query", "sortir", "dans", "jardin"], ["lint"]], ids=["query", "lint"]
)
def test_a_closed_stdout_exits_quietly_with_its_own_code(tmp_path, argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child starts, so its first write fails
    try:
        child = run_child(
            ["-m", "motionsem.cli", *argv],
            tmp_path,
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (cli.EXIT_BROKEN_PIPE, b"")


# A console script with an exit handler that reports whether the heap was frozen.
ENTRY_SCRIPT = (
    "import atexit, gc, sys\n"
    "from motionsem import cli\n"
    "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0, file=sys.stderr))\n"
    "cli.entry()\n"
)


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["query", "sortir", "dans", "jardin"], cli.EXIT_OK, None),
        (["query", "zzz", "dans", "jardin"], cli.EXIT_UNKNOWN_LEMMA,
         "error: verb 'zzz' not in the fr lexicon"),
        (["--help"], cli.EXIT_OK, None),
        (["query", "sortir", "dans"], cli.EXIT_LOAD_ERROR,
         "motionsem query: error: the following arguments are required: ground"),
    ],
    ids=["query", "unknown-lemma", "help", "usage-error"],
)
def test_every_way_out_of_entry_freezes_the_heap_and_runs_exit_handlers(
    tmp_path, monkeypatch, capsys, argv, code, error
):
    # -S: a clean interpreter, whose heap only the code under test freezes
    child = run_child(
        ["-S", "-c", ENTRY_SCRIPT, *argv], tmp_path, env_extra={"COLUMNS": "80"},
        capture_output=True, text=True,
    )
    monkeypatch.setenv("COLUMNS", "80")
    try:
        in_process = cli.main(argv)
    except SystemExit as exc:  # help and usage errors leave main() this way
        in_process = exc.code
    out, err = capsys.readouterr()
    assert (child.returncode, in_process) == (code, code)
    assert child.stdout == out
    assert (out != "") == (code == cli.EXIT_OK)
    assert err.splitlines()[-1:] == ([] if error is None else [error])
    assert child.stderr == err + "frozen: True\n"


def test_commands_do_not_import_importlib_resources(tmp_path):
    # -S: a clean interpreter, as site-packages may import these modules at start-up
    script = (
        "import sys\n"
        "from motionsem import cli\n"
        "def loaded():\n"
        "    names = 'importlib.resources argparse locale gettext motionsem.corpus'\n"
        "    return [name for name in names.split() if name in sys.modules]\n"
        "codes = cli.main(['query', 'sortir', 'dans', 'jardin']), cli.main(['lint'])\n"
        "print(codes, loaded())\n"
        f"print(cli.main(['corpus', {GOLDEN!r}]), loaded())\n"
    )
    child = run_child(["-S", "-c", script], tmp_path, capture_output=True, text=True)
    assert child.stderr == ""
    lines = child.stdout.splitlines()
    assert lines[-1] == "0 ['motionsem.corpus']"
    assert "(0, 0) []" in lines


@pytest.mark.parametrize(
    "name, argv",
    [
        ("fr.lex", ("query", "sortir", "dans", "jardin", "--lexicon")),
        ("default.rules", ("lint", "--rules")),
        ("golden.corpus", ("corpus",)),
    ],
    ids=["lexicon", "rules", "corpus"],
)
def test_byte_order_mark_is_ignored(tmp_path, capsys, name, argv):
    data = resources.files("motionsem.data").joinpath(name).read_bytes()
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_bytes(data)
    marked.write_bytes(b"\xef\xbb\xbf" + data)
    expected = run(capsys, *argv, str(plain))
    assert expected[0] == cli.EXIT_OK
    assert run(capsys, *argv, str(marked)) == expected


# Help and usage text are argparse's: pinned byte for byte at 80 columns.
QUERY_USAGE = """\
usage: motionsem query [-h] [--lang {fr,en}] [--mobile MOBILE]
                       [--format {text,records}] [--lexicon PATH]
                       [--rules PATH]
                       verb prep ground
"""
TOP_USAGE = "usage: motionsem [-h] {query,corpus,lint} ...\n"
DATA_OPTIONS_HELP = """\
options:
  -h, --help      show this help message and exit
  --lexicon PATH  lexicon file; repeatable, one per language (default: bundled
                  seeds)
  --rules PATH    rule base file (default: bundled rules)
"""
GO_OUT_RECORDS = (
    "mobile mobile\nlref lref#go-out\nground garden\ngarden post inside prep\n"
    "lref#go-out pre inside verb\nlref#go-out post proximal verb\n"
)
DASH_X_RECORDS = (
    "mobile mobile\nlref lref#sortir\nground -x\n-x post inside interaction\n"
    "lref#sortir pre inside verb\nlref#sortir post proximal verb\n"
)

# (argv, exit code, stdout, stderr)
ARGPARSE_SURFACE = {
    "help": (["--help"], 0, TOP_USAGE + """
Spatiotemporal semantics of motion verb + preposition complexes

positional arguments:
  {query,corpus,lint}
    query              compose one motion complex
    corpus             run a corpus of golden cases
    lint               validate lexicons and rule base coverage

options:
  -h, --help           show this help message and exit
""", ""),
    "query-help": (["query", "--help"], 0, QUERY_USAGE + """
positional arguments:
  verb
  prep
  ground

options:
  -h, --help            show this help message and exit
  --lang {fr,en}
  --mobile MOBILE
  --format {text,records}
                        full explanation or just the machine-diffable trace
                        records
  --lexicon PATH        lexicon file; repeatable, one per language (default:
                        bundled seeds)
  --rules PATH          rule base file (default: bundled rules)
""", ""),
    "corpus-help": (["corpus", "--help"], 0, """\
usage: motionsem corpus [-h] [--lexicon PATH] [--rules PATH] corpus_path

positional arguments:
  corpus_path

""" + DATA_OPTIONS_HELP, ""),
    "lint-help": (
        ["lint", "--help"], 0,
        "usage: motionsem lint [-h] [--lexicon PATH] [--rules PATH]\n\n"
        + DATA_OPTIONS_HELP,
        "",
    ),
    "no-subcommand": (
        [], 2, "",
        TOP_USAGE + "motionsem: error: the following arguments are required: command\n",
    ),
    "missing-positional": (
        ["query", "sortir", "dans"], 2, "",
        QUERY_USAGE
        + "motionsem query: error: the following arguments are required: ground\n",
    ),
    "invalid-choice": (
        ["query", "sortir", "dans", "jardin", "--lang", "de"], 2, "",
        QUERY_USAGE + "motionsem query: error: argument --lang: invalid choice: "
        "'de' (choose from 'fr', 'en')\n",
    ),
    "unknown-option": (
        ["query", "sortir", "dans", "jardin", "--bogus"], 2, "",
        TOP_USAGE + "motionsem: error: unrecognized arguments: --bogus\n",
    ),
    "extra-positional": (
        ["query", "sortir", "dans", "jardin", "public"], 2, "",
        TOP_USAGE + "motionsem: error: unrecognized arguments: public\n",
    ),
    "abbreviated-option": (
        ["query", "go-out", "into", "garden", "--la", "en", "--format", "records"],
        0, GO_OUT_RECORDS, "",
    ),
    "equals-form": (
        ["query", "go-out", "into", "garden", "--lang", "en", "--format=records"],
        0, GO_OUT_RECORDS, "",
    ),
    "double-dash": (
        ["query", "sortir", "dans", "--format", "records", "--", "-x"],
        0, DASH_X_RECORDS, "",
    ),
}


@pytest.mark.parametrize("case", ARGPARSE_SURFACE)
def test_argparse_surface_is_pinned(tmp_path, case):
    argv, code, out, err = ARGPARSE_SURFACE[case]
    # -S: site plays no part in parsing, and the child starts faster without it
    child = run_child(
        ["-S", "-m", "motionsem.cli", *argv], tmp_path, capture_output=True,
        env_extra={"COLUMNS": "80"},
    )
    assert (child.returncode, child.stdout, child.stderr) == (
        code, out.encode(), err.encode()
    )


@pytest.mark.parametrize("case", ARGPARSE_SURFACE)
def test_main_matches_the_pinned_surface(monkeypatch, capsys, case):
    argv, code, out, err = ARGPARSE_SURFACE[case]
    monkeypatch.setenv("COLUMNS", "80")
    try:
        actual = cli.main(argv)
    except SystemExit as exc:
        actual = exc.code
    assert (actual, *capsys.readouterr()) == (code, out, err)


def parsed_by_argparse(argv):
    """vars() of argparse's namespace for argv, or None if argparse rejects it."""
    with (
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "sortir", "dans", "jardin"],
        ["query", "--mobile", "", "sortir", "--lang", "en", "a b", "--format", "records",
         "jar\u00a0din"],
        ["corpus", "golden.corpus", "--rules", "a.rules", "--rules", "b.rules"],
        ["lint", "--lexicon", "fr.lex", "--rules", "x.rules", "--lexicon", "en.lex"],
        ["lint"],
    ],
    ids=["query", "query-mixed", "corpus-last-rules-wins", "lint-lexicons-append",
         "lint"],
)
def test_reader_takes_the_plain_form_as_argparse_does(argv):
    read = cli._read_plain(argv)
    assert read is not None and vars(read) == parsed_by_argparse(argv)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["--help"],
        ["lint", "--help"],
        ["query", "sortir", "dans"],
        ["query", "sortir", "dans", "jardin", "public"],
        ["lint", "extra"],
        ["query", "sortir", "dans", "jardin", "--la", "en"],
        ["lint", "--lex", "fr.lex"],
        ["query", "sortir", "dans", "jardin", "--lang", "de"],
        ["query", "sortir", "dans", "jardin", "--format", "Records"],
        ["query", "sortir", "dans", "jardin", "--format=records"],
        ["query", "sortir", "dans", "--", "-x"],
        ["query", "sortir", "dans", "jardin", "--mobile", "-x"],
        ["query", "sortir", "dans", "jardin", "--lang"],
        ["query", "sortir", "dans", "-x"],
    ],
)
def test_reader_leaves_all_but_the_plain_form_to_argparse(argv):
    assert cli._read_plain(argv) is None


# Mostly plain words, a command's own full flags and good values, so that the
# reader answers often; the rest are forms it must leave to argparse.
WORDS = ["sortir", "dans", "jardin", "", " ", "a b", "jar\u00a0din", "query"] * 5 + [
    "-x", "-1", "-", "--"
]
GOOD_VALUES = {
    "--lang": ["fr", "en"],
    "--mobile": ["la balle", "", "en"],
    "--format": ["text", "records"],
    "--lexicon": ["fr.lex", "en.lex"],
    "--rules": ["x.rules"],
}
OTHER_FLAGS = [
    "--la", "--lex", "--l", "--form", "--lang=en", "--format=records", "--bogus", "-h",
    "--", "--LANG", "--lang", "--format",
]
ARITY = {"query": 3, "corpus": 1, "lint": 0}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from([*ARITY] * 3 + ["quer", "-h"]))
    count = draw(st.sampled_from([ARITY.get(command, 0)] * 4 + [0, 1, 2, 3, 4]))
    chunks = [[draw(st.sampled_from(WORDS))] for _ in range(count)]
    own = list(GOOD_VALUES) if command == "query" else ["--lexicon", "--rules"]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(own * 10 + OTHER_FLAGS))
        good = GOOD_VALUES.get(flag, ["en"])
        value = draw(st.sampled_from(good * 12 + ["de", "Records", "-x", "--lang", None]))
        chunks.append([flag] if value is None else [flag, value])
    order = draw(st.permutations(range(len(chunks))))
    return [command, *(word for index in order for word in chunks[index])]


@given(command_lines())
def test_reader_agrees_with_argparse_whenever_it_answers(argv):
    read = cli._read_plain(argv)
    if read is not None:
        assert vars(read) == parsed_by_argparse(argv)
