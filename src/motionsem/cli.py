"""Command-line interface: single queries, corpus runs, data linting.

The grammar is one table.  A command line in the plain form (a subcommand,
exactly its positionals, and full option flags each followed by a value in
the option's choices, no positional or value starting with "-") is read
directly; any other, including help, usage errors, abbreviated flags,
"--flag=value" and "--", goes to the argparse parser built from the same
table, which gives the same namespace and alone writes help and error text.

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

import os
import sys
from types import SimpleNamespace

from .compose import MotionComplex, check_names, compose, explain
from .errors import (
    FormatError,
    MotionSemError,
    read_data_file,
    wire_name,
)
from .lexicon import LANGUAGES, Lexicon, default_lexicon, load_lexicon, lookup_lexicon
from .rules import RuleBase, default_rulebase, lint_rulebase, load_rulebase
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


def cmd_query(args: "SimpleNamespace | argparse.Namespace") -> int:
    try:
        complex_ = MotionComplex(args.verb, args.prep, args.ground, args.mobile, args.lang)
        check_names(complex_)
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


def cmd_corpus(args: "SimpleNamespace | argparse.Namespace") -> int:
    from .corpus import parse_corpus, run_corpus

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


def cmd_lint(args: "SimpleNamespace | argparse.Namespace") -> int:
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


# The grammar, declared once: per subcommand its help, handler, positionals
# and options (flag: add_argument keywords).  build_parser and _read_plain
# both read it.
_DATA_OPTIONS = {
    "--lexicon": dict(
        action="append",
        metavar="PATH",
        help="lexicon file; repeatable, one per language (default: bundled seeds)",
    ),
    "--rules": dict(metavar="PATH", help="rule base file (default: bundled rules)"),
}
_COMMANDS = {
    "query": ("compose one motion complex", cmd_query, ("verb", "prep", "ground"), {
        "--lang": dict(choices=LANGUAGES, default="fr"),
        "--mobile": dict(default="mobile"),
        "--format": dict(
            choices=("text", "records"),
            default="text",
            help="full explanation or just the machine-diffable trace records",
        ),
        **_DATA_OPTIONS,
    }),
    "corpus": (
        "run a corpus of golden cases", cmd_corpus, ("corpus_path",), _DATA_OPTIONS
    ),
    "lint": ("validate lexicons and rule base coverage", cmd_lint, (), _DATA_OPTIONS),
}


def build_parser() -> "argparse.ArgumentParser":
    import argparse

    parser = argparse.ArgumentParser(
        prog="motionsem",
        description="Spatiotemporal semantics of motion verb + preposition complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, positionals, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        command.set_defaults(handler=handler)
        for positional in positionals:
            command.add_argument(positional)
        for flag, keywords in options.items():
            command.add_argument(flag, **keywords)
    return parser


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would give for a plain command line, else None.

    Plain: a subcommand, then its positionals and full option flags, each
    flag followed by a value in its choices; no value starts with "-".
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, positionals, options = _COMMANDS[argv[0]]
    values = {flag[2:]: keywords.get("default") for flag, keywords in options.items()}
    given = []
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            given.append(word)
            continue
        keywords = options.get(word)
        value = next(words, None)
        if keywords is None or value is None or value.startswith("-"):
            return None
        choices = keywords.get("choices")
        if choices is not None and value not in choices:
            return None
        dest = word[2:]
        if keywords.get("action") == "append":
            value = (values[dest] or []) + [value]
        values[dest] = value
    if len(given) != len(positionals):
        return None
    return SimpleNamespace(
        command=argv[0], handler=handler, **dict(zip(positionals, given)), **values
    )


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv) or build_parser().parse_args(argv)
    return args.handler(args)


def entry() -> None:
    import gc  # here, as build_parser imports argparse: importing cli costs no more

    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BrokenPipeError:
        # to devnull, so that the flush at shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    finally:
        # on every way out: the collections of interpreter shutdown then skip
        # the heap, which cost a query child more than its own work; atexit
        # handlers still run.  Never in main(), whose caller may go on.
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
