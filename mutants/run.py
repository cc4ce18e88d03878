#!/usr/bin/env python3
"""Mutation check: apply each checked-in mutant and run the tests that must catch it.

Run from the repository root:

    python3 mutants/run.py            # every mutant in mutants/mutants.txt
    python3 mutants/run.py NAME ...   # only the named mutants

A mutant is one exact text replacement in one file under src/motionsem/,
plus the pytest node ids of the tests that must then fail (see the header
of mutants.txt).  The runner copies src/, tests/ and pyproject.toml to a
temporary directory under .mutants_tmp/ and first runs every named test on
the unchanged copy, which must pass.  Then, for each mutant, it applies the
replacement to the copy, runs only that mutant's tests and restores the
file.  A mutant is killed when each of its tests fails; otherwise it
survived, which is a gap in the tests.  One line per mutant and the totals
are printed; the exit status is 1 if any mutant survived, and a run that
cannot decide (a named test failing unchanged, or one pytest cannot find)
stops with a message and status 1 too.  Stdlib only.
"""

from __future__ import annotations

import ast
import configparser
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "mutants" / "mutants.txt"
TMP_ROOT = ROOT / ".mutants_tmp"


def load_mutants(path: Path = MUTANTS) -> list[SimpleNamespace]:
    """The mutants of path, in file order: name, file, old, new and tests."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    return [
        SimpleNamespace(
            name=name,
            file=section["file"],
            old=ast.literal_eval(section["old"]),
            new=ast.literal_eval(section["new"]),
            tests=section["tests"].split(),
        )
        for name, section in parser.items()
        if name != parser.default_section
    ]


def failures(copy: Path, tests: list[str]) -> list[str]:
    """Node ids that failed or errored when pytest ran tests in copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--hypothesis-seed=0", *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    if done.returncode not in (0, 1):  # interrupted, or a node id not found
        sys.exit(f"pytest could not run {tests}:\n{done.stdout}{done.stderr}")
    return [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in done.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]


def caught(test: str, failed: list[str]) -> bool:
    """Whether test, or a parametrized case or the whole module of it, failed."""
    return any(
        f == test or f.startswith(test + "[") or test.startswith(f + "::") for f in failed
    )


def main(argv: list[str]) -> int:
    mutants = load_mutants()
    unknown = set(argv) - {m.name for m in mutants}
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in mutants if not argv or m.name in argv]
    TMP_ROOT.mkdir(exist_ok=True)
    copy = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        tests = sorted({test for m in chosen for test in m.tests})
        broken = failures(copy, tests)
        if broken:
            sys.exit(f"named tests fail on the unchanged code: {broken}")
        survived = 0
        for mutant in chosen:
            path = copy / "src" / "motionsem" / mutant.file
            original = path.read_text(encoding="utf-8")
            if original.count(mutant.old) != 1:
                sys.exit(f"{mutant.name}: old text does not occur exactly once")
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                failed = failures(copy, mutant.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            missed = [test for test in mutant.tests if not caught(test, failed)]
            survived += bool(missed)
            status = "SURVIVED (passed: " + ", ".join(missed) + ")" if missed else "killed"
            print(f"{mutant.name}: {status}", flush=True)
        print(f"mutants: {len(chosen)}  killed: {len(chosen) - survived}  "
              f"survived: {survived}")
        return 1 if survived else 0
    finally:
        shutil.rmtree(copy, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
