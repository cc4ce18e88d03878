"""The output surface has not moved (tests/surface.py, tests/data/surface.sha256)."""

from __future__ import annotations

import surface


def test_no_section_of_the_output_surface_moved():
    assert surface.moved() == []
