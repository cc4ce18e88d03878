"""The checked-in mutant list stays applicable (mutants/mutants.txt).

Running the mutants takes minutes and stays outside tier-1:
`python3 mutants/run.py`.  This only checks that every mutant still
applies to exactly one place and names tests that exist.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("mutants_run", ROOT / "mutants" / "run.py")
RUNNER = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(RUNNER)


def test_each_mutant_old_text_occurs_exactly_once_in_src():
    mutants = RUNNER.load_mutants()
    assert len(mutants) >= 190
    for mutant in mutants:
        text = (ROOT / "src" / "motionsem" / mutant.file).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old and mutant.tests, mutant.name
        for test in mutant.tests:
            path, function = re.fullmatch(r"(tests/\w+\.py)::(\w+)(\[.*\])?", test).group(1, 2)
            assert f"def {function}(" in (ROOT / path).read_text(encoding="utf-8"), test


def test_a_mutant_whose_replacement_does_not_parse_stops_the_run():
    source = "def f(x):\n    return x + 1\n"
    good = SimpleNamespace(name="plus-to-minus", old="x + 1", new="x - 1")
    assert RUNNER.mutated(good, source) == "def f(x):\n    return x - 1\n"
    bad = SimpleNamespace(name="plus-unclosed", old="x + 1", new="(x + 1")
    with pytest.raises(SystemExit, match="plus-unclosed: the replaced text does not parse"):
        RUNNER.mutated(bad, source)
