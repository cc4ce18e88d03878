#!/usr/bin/env python3
"""Line-coverage check: the src/motionsem statements that no tier-1 test runs.

Run from the repository root:

    python3 mutants/coverage.py

It runs the tier-1 suite in this process under a sys.settrace tracer that
follows only frames of src/motionsem, so the package is imported under
the tracer too.  Hypothesis runs with seed 0, as in mutants/run.py, so
a fuzzer reaches the same lines on every run.  Then it prints each executable line of src/motionsem that
no test ran, marking the ones ALLOWED names.  Executable lines are the line
starts of each code object's bytecode, less docstrings (as the stdlib
trace module counts them).  A line that CLI children alone run is never
seen here: ALLOWED names each such statement by its text, with a reason.
The exit status is 1 if the suite fails, if an unreached line is not
allowed, or if an allowed text is reached or does not occur exactly once.
Stdlib and pytest only; 16 to 21 s on a 2-vCPU VM with Python 3.11.7.
"""

from __future__ import annotations

import ast
import dis
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "motionsem"

_ENTRY_BODY = """\
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
"""
# (file under src/motionsem, statement text) -> why no test runs it in process.
# Each text occurs exactly once in its file, and allows the lines it spans.
ALLOWED = {
    ("cli.py", "if argv is None:\n        argv = sys.argv[1:]\n"):
        "main() without argv: only the console script runs it, in a CLI child",
    ("cli.py", "def entry() -> None:\n" + _ENTRY_BODY):
        "entry(): only the console script runs it, in a CLI child",
    ("cli.py", 'if __name__ == "__main__":\n    entry()\n'):
        "python -m motionsem.cli: only in a CLI child",
}


def executable_lines(path: Path) -> set[int]:
    """The line starts of every code object compiled from path, less docstrings."""
    source = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        stack += [const for const in code.co_consts if isinstance(const, types.CodeType)]
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def allowed_spans(name: str, source: str) -> dict[str, set[int]]:
    """The lines that each ALLOWED text of file name spans in source, by text."""
    spans = {}
    for file, text in ALLOWED:
        if file == name and source.count(text) == 1:
            first = source[: source.index(text)].count("\n") + 1
            spans[text] = set(range(first, first + text.rstrip("\n").count("\n") + 1))
    return spans


def run_traced(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code for args, and the (file, line) pairs of src/ it ran."""
    import pytest

    prefix = str(SRC) + "/"
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            hits.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), hits


def main() -> int:
    if "motionsem" in sys.modules:
        sys.exit("motionsem is already imported: its import would go untraced")
    args = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")]
    status, hits = run_traced(args)
    if status != 0:
        print(f"the tests failed (pytest exit {status})")
        return 1
    problems = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        spans = allowed_spans(path.name, source)
        unreached = executable_lines(path) - {line for f, line in hits if f == str(path)}
        lines = source.splitlines()
        for line in sorted(unreached):
            text = next((text for text, span in spans.items() if line in span), None)
            note = "" if text is None else f"  (allowed: {ALLOWED[path.name, text]})"
            print(f"{path.name}:{line}: {lines[line - 1].strip()}{note}")
            problems += text is None
        for file, text in ALLOWED:
            if file == path.name and not spans.get(text, set()) & unreached:
                problems += 1
                print(f"{file}: allowed text is gone or reached: {text!r}")
    print(f"problems: {problems}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
