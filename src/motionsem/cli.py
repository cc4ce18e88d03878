"""Command-line interface: single queries, corpus runs, data linting.

Exit codes are fixed and published:

    0  success
    1  corpus run had failing or erroring cases
    2  usage error, or a lexicon / rule base / corpus file failed to load
    3  unknown verb or preposition lemma
    4  verb is not a change-of-location verb
    5  infelicitous combination (no rule yields a well-formed trace)
    6  ambiguous rule base (tie on strength and priority)
  141  standard output was closed before all of it was written (as a shell
       reports a process ended by SIGPIPE); nothing is printed
"""

from __future__ import annotations

import argparse
import os
import sys

from .compose import MotionComplex, compose, explain
from .errors import (
    FormatError,
    MotionSemError,
    read_data_file,
    wire_name,
)
from .lexicon import LANGUAGES, Lexicon, default_lexicon, load_lexicon, lookup_lexicon
from .rules import RuleBase, default_rulebase, lint_rulebase, load_rulebase
from .corpus import parse_corpus, run_corpus
from .trace import render_records

EXIT_OK = 0
EXIT_CORPUS_FAILURES = 1
EXIT_LOAD_ERROR = 2
EXIT_UNKNOWN_LEMMA = 3
EXIT_NOT_COL = 4
EXIT_INFELICITOUS = 5
EXIT_AMBIGUOUS = 6
EXIT_BROKEN_PIPE = 141

# Exit codes of the query errors by wire name; any other error is a load error.
_EXIT_CODES = {
    "UnknownLemma": EXIT_UNKNOWN_LEMMA,
    "UnknownLanguage": EXIT_UNKNOWN_LEMMA,
    "NotACoLVerb": EXIT_NOT_COL,
    "Infelicitous": EXIT_INFELICITOUS,
    "AmbiguousRuleBase": EXIT_AMBIGUOUS,
}


def _load_lexicons(paths: list[str] | None, languages=LANGUAGES) -> dict[str, Lexicon]:
    if not paths:
        return {lang: default_lexicon(lang) for lang in languages}
    lexicons: dict[str, Lexicon] = {}
    for path in paths:
        lexicon = load_lexicon(read_data_file(path))
        if lexicon.language in lexicons:
            raise FormatError(f"two lexicons given for {lexicon.language!r}")
        lexicons[lexicon.language] = lexicon
    return lexicons


def _load_rules(path: str | None) -> RuleBase:
    if path is None:
        return default_rulebase()
    return load_rulebase(read_data_file(path))


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lexicon",
        action="append",
        metavar="PATH",
        help="lexicon file; repeatable, one per language (default: bundled seeds)",
    )
    parser.add_argument(
        "--rules", metavar="PATH", help="rule base file (default: bundled rules)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionsem",
        description="Spatiotemporal semantics of motion verb + preposition complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="compose one motion complex")
    query.set_defaults(handler=cmd_query)
    query.add_argument("verb")
    query.add_argument("prep")
    query.add_argument("ground")
    query.add_argument("--lang", choices=LANGUAGES, default="fr")
    query.add_argument("--mobile", default="mobile")
    query.add_argument(
        "--format",
        choices=("text", "records"),
        default="text",
        help="full explanation or just the machine-diffable trace records",
    )
    _add_data_flags(query)

    corpus = sub.add_parser("corpus", help="run a corpus of golden cases")
    corpus.set_defaults(handler=cmd_corpus)
    corpus.add_argument("corpus_path")
    _add_data_flags(corpus)

    lint = sub.add_parser("lint", help="validate lexicons and rule base coverage")
    lint.set_defaults(handler=cmd_lint)
    _add_data_flags(lint)

    return parser


def cmd_query(args: argparse.Namespace) -> int:
    try:
        complex_ = MotionComplex(args.verb, args.prep, args.ground, args.mobile, args.lang)
        for name, value in zip(MotionComplex._fields, complex_[:4]):
            if value.isspace() or not value.isprintable():  # one record a line
                raise ValueError(
                    f"motion complex field {name} must be printable and not blank"
                )
    except ValueError as exc:  # an empty, blank or unprintable field is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOAD_ERROR
    try:
        lexicons = _load_lexicons(args.lexicon, (args.lang,))
        rules = _load_rules(args.rules)
    except (MotionSemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOAD_ERROR

    try:
        derivation = compose(complex_, lookup_lexicon(lexicons, args.lang), rules)
    except MotionSemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(wire_name(exc), EXIT_LOAD_ERROR)

    if args.format == "records":
        print(render_records(derivation.trace))
    else:
        print(explain(derivation))
    return EXIT_OK


def cmd_corpus(args: argparse.Namespace) -> int:
    try:
        lexicons = _load_lexicons(args.lexicon)
        rules = _load_rules(args.rules)
        cases = parse_corpus(read_data_file(args.corpus_path))
    except (MotionSemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOAD_ERROR

    report = run_corpus(cases, lexicons, rules)
    print(report.render())
    return EXIT_OK if report.ok else EXIT_CORPUS_FAILURES


def cmd_lint(args: argparse.Namespace) -> int:
    status = EXIT_OK
    try:
        lexicons = _load_lexicons(args.lexicon)
    except (MotionSemError, OSError) as exc:
        print(f"lexicon error: {exc}", file=sys.stderr)
        return EXIT_LOAD_ERROR

    for lang in sorted(lexicons):
        lexicon = lexicons[lang]
        print(
            f"lexicon {lang}: {len(lexicon.verbs)} verbs, "
            f"{len(lexicon.preps)} prepositions"
        )

    try:
        rules = _load_rules(args.rules)
    except (MotionSemError, OSError) as exc:
        print(f"rule base error: {exc}", file=sys.stderr)
        return EXIT_LOAD_ERROR

    report = lint_rulebase(rules)
    print(report.render())
    if not report.ok:
        status = EXIT_LOAD_ERROR
    return status


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BrokenPipeError:
        # to devnull, so that the flush at shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
