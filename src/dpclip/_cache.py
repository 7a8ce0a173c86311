"""A content-addressed store of numpy arrays, one ``.npy`` file per entry.

An entry is ``$XDG_CACHE_HOME/dpclip/<tag>-<sha256>.npy`` (``~/.cache/dpclip``
when that variable is unset, empty or relative): the sha256 covers every
input the value was computed from, and the tag names what was computed and
the version of the code that computes it. Each caller keeps its tag as a
constant and bumps it whenever that code starts to return other bits for the
same inputs, so that no older entry is ever read back. A cache that is
missing, unreadable, unwritable or holds a spoiled entry only costs the
computation again. Only the code that uses the store imports it: without
bytecode files every run compiles what it imports.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
from typing import Callable

import numpy as np


def _entry_path(tag: str, key: str) -> str:
    """``$XDG_CACHE_HOME/dpclip/<tag>-<key>.npy``."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # unset, empty or relative: the XDG default
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(root, "dpclip", f"{tag}-{key}.npy")


def cached(
    tag: str, key: str, compute: Callable[[], np.ndarray],
    valid: Callable[[np.ndarray], bool],
) -> np.ndarray:
    """The entry stored under ``(tag, key)`` when ``valid`` accepts it,
    else ``compute()``, stored when ``valid`` accepts that.

    The entry is written to a pid-named temporary file and renamed into
    place, so a reader never sees half of one. A cache that cannot be read or
    written is skipped, and a compute that raises writes nothing.
    """
    entry = _entry_path(tag, key)
    try:
        with open(entry, "rb") as fh:
            value = np.lib.format.read_array(fh, allow_pickle=False)
        if valid(value):
            return value
    except (OSError, ValueError, EOFError):
        pass
    value = compute()
    if not valid(value):
        return value
    tmp = f"{entry}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(entry), exist_ok=True)
        with open(tmp, "wb") as fh:
            np.lib.format.write_array(fh, value, allow_pickle=False)
        os.replace(tmp, entry)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
    return value


def digest(*parts) -> str:
    """Hex sha256 of the parts, bytes or arrays, each after its length."""
    key = hashlib.sha256()
    for part in parts:
        view = memoryview(np.ascontiguousarray(part) if isinstance(part, np.ndarray) else part)
        key.update(view.nbytes.to_bytes(8, "little"))
        key.update(view)
    return key.hexdigest()


def file_digest(path) -> str:
    """Hex sha256 of a file's bytes, read in 1 MiB blocks."""
    key = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(functools.partial(fh.read, 1 << 20), b""):
            key.update(block)
    return key.hexdigest()
