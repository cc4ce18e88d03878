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
    # every broken mutant, and every test named that does not exist, at once
    mutants = RUNNER.load_mutants()
    assert len(mutants) >= 190
    broken = []
    for mutant in mutants:
        text = (ROOT / "src" / "motionsem" / mutant.file).read_text(encoding="utf-8")
        if text.count(mutant.old) != 1 or mutant.new == mutant.old or not mutant.tests:
            broken.append(mutant.name)
        for test in mutant.tests:
            path, function = re.fullmatch(r"(tests/\w+\.py)::(\w+)(\[.*\])?", test).group(1, 2)
            if f"def {function}(" not in (ROOT / path).read_text(encoding="utf-8"):
                broken.append(f"{mutant.name}: {test}")
    assert broken == [], ", ".join(broken)


def test_a_mutant_whose_replacement_does_not_parse_stops_the_run():
    source = "def f(x):\n    return x + 1\n"
    good = SimpleNamespace(name="plus-to-minus", old="x + 1", new="x - 1")
    assert RUNNER.mutated(good, source) == "def f(x):\n    return x - 1\n"
    bad = SimpleNamespace(name="plus-unclosed", old="x + 1", new="(x + 1")
    with pytest.raises(SystemExit, match="plus-unclosed: the replaced text does not parse"):
        RUNNER.mutated(bad, source)


def test_every_mutant_that_cannot_be_applied_is_named_before_any_test_runs(
    tmp_path, monkeypatch
):
    (tmp_path / "m.py").write_text("def f(x):\n    return x + 1\n", encoding="utf-8")
    mutants = [
        SimpleNamespace(name="plus-to-minus", file="m.py", old="x + 1", new="x - 1"),
        SimpleNamespace(name="times-gone", file="m.py", old="x * 2", new="x"),
        SimpleNamespace(name="plus-unclosed", file="m.py", old="x + 1", new="(x + 1"),
    ]
    assert RUNNER.check_applicable(mutants[:1], tmp_path) is None
    with pytest.raises(SystemExit) as info:
        RUNNER.check_applicable(mutants, tmp_path)
    first, *named = str(info.value).split("\n")
    assert first == "mutants that cannot be applied:"
    assert named[0] == "times-gone: old text does not occur exactly once"
    assert named[1].startswith("plus-unclosed: the replaced text does not parse")
    assert len(named) == 2
    # main() checks before it copies the tree or runs the baseline
    broken = SimpleNamespace(name="gone", file="trace.py", old="no such text", new="x")
    monkeypatch.setattr(RUNNER, "load_mutants", lambda: [broken])
    monkeypatch.setattr(RUNNER, "TMP_ROOT", tmp_path / "copies")
    with pytest.raises(SystemExit, match="^mutants that cannot be applied:\ngone: "):
        RUNNER.main([])
    assert not (tmp_path / "copies").exists()
