"""Fixtures shared by every test module."""

import pytest


@pytest.fixture(autouse=True)
def private_cache_home(tmp_path, monkeypatch):
    """Each test's own ``XDG_CACHE_HOME``, so that the CSV parse cache of
    ``load_dataset_csv`` never reads or writes the user's cache directory."""
    home = tmp_path / "xdg-cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home
