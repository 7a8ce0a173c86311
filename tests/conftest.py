"""Fixtures shared by every test module."""

import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def private_cache_home(tmp_path, monkeypatch):
    """Each test's own ``XDG_CACHE_HOME``, so that the on-disk cache of
    ``load_dataset_csv``'s CSV parses never reads or writes the user's cache
    directory."""
    home = tmp_path / "xdg-cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


@pytest.fixture
def src_env():
    """The environment of a subprocess that imports this checkout's dpclip:
    this one's, with ``src/`` first on ``PYTHONPATH``."""
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    return dict(os.environ, PYTHONPATH=path)
