"""Fixtures shared by the test modules."""

from __future__ import annotations

import shutil
from importlib import resources
from types import SimpleNamespace

import pytest

from motionsem.lexicon import default_class_inventory


@pytest.fixture
def bundled_data(tmp_path, monkeypatch):
    """A writable copy of the bundled data that the lexicon module reads instead.

    The class inventory is read once per process, so its cache is cleared
    before and after the test.
    """
    data = tmp_path / "data"
    data.mkdir()
    for entry in resources.files("motionsem.data").iterdir():
        if entry.is_file():
            shutil.copyfile(entry, data / entry.name)
    monkeypatch.setattr(
        "motionsem.lexicon.resources", SimpleNamespace(files=lambda package: data)
    )
    default_class_inventory.cache_clear()
    yield data
    default_class_inventory.cache_clear()
