"""Fixtures shared by every test module."""

import pytest


@pytest.fixture(autouse=True)
def private_cache_home(tmp_path, monkeypatch):
    """Each test's own ``XDG_CACHE_HOME``, so that the on-disk cache, with
    the CSV parses of ``load_dataset_csv`` and the f* entries of the harness's
    reference oracle, never reads or writes the user's cache directory."""
    home = tmp_path / "xdg-cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home
