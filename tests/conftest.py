"""Fixtures shared by the test modules."""

from __future__ import annotations

import shutil

import pytest

from motionsem import errors
from motionsem.lexicon import default_class_inventory


@pytest.fixture
def bundled_data(tmp_path, monkeypatch):
    """A writable copy of the bundled data, read in its place by every loader.

    The class inventory is read once per process, so its cache is cleared
    before and after the test.
    """
    data = tmp_path / "data"
    shutil.copytree(errors.DATA_DIR, data)
    monkeypatch.setattr(errors, "DATA_DIR", str(data))
    default_class_inventory.cache_clear()
    yield data
    default_class_inventory.cache_clear()
