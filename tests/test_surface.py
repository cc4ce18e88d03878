"""The output surface has not moved (tests/surface.py, tests/data/surface.sha256)."""

from __future__ import annotations

import pytest

import surface


def test_no_section_of_the_output_surface_moved():
    assert surface.moved() == []


def test_text_prints_one_section_to_diff(monkeypatch, capsys):
    monkeypatch.setattr(surface, "sections", lambda: {"cli": "$ ['lint'] -> 0\n"})
    assert surface.main(["--text", "cli"]) == 0
    assert capsys.readouterr().out == "$ ['lint'] -> 0\n"
    with pytest.raises(SystemExit, match=r"usage: .* \[--write \| --text SECTION\]$"):
        surface.main(["--text", "seed"])
