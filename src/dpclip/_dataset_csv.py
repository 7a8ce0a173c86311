"""Dataset CSV parsing for :func:`dpclip.losses.load_dataset_csv`, with a
cache of every parse keyed by the sha256 of the file's bytes.

Each cache entry is ``np.loadtxt``'s exact output for one file, kept as
``$XDG_CACHE_HOME/dpclip/<TAG>-<sha256>.npy`` (``~/.cache/dpclip`` when that
variable is unset). Only ``load_dataset_csv`` imports this module: without
bytecode files every run compiles what it imports, so a run that reads no
CSV does not compile the loader or load hashlib.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import os

import numpy as np

# Names the parse that an entry holds. Bump it whenever read's parse (reader
# options, header detection, encoding) changes what np.loadtxt returns for
# the same bytes, so that no older entry is ever read back.
TAG = "loadtxt1"


def read(path) -> tuple[np.ndarray, np.ndarray]:
    """Rows of d floats plus a trailing integer label, header optional:
    ``(data, labels)``, with the label column still in ``data``.

    Only the first non-blank records are read with :mod:`csv`, to tell a
    header from data; numpy's C reader then parses every data row, or the
    cache hands back its earlier parse. A leading UTF-8 byte-order mark is
    dropped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        records = (record for record in reader if record)
        first = next(records, None)
        if first is None:
            raise ValueError(f"empty dataset file: {path}")
        try:
            [float(tok) for tok in first]
        except ValueError:
            first = next(records, None)  # header row
            if first is None:
                raise ValueError(f"dataset file has a header but no rows: {path}")
        skiprows = reader.line_num - 1  # lines before the first data row, blank ones too
    if len(first) < 2:
        raise ValueError("rows must contain at least one feature and a label")
    data = _cached_loadtxt(
        path, len(first), delimiter=",", skiprows=skiprows, ndmin=2, comments=None,
        quotechar='"', encoding="utf-8-sig",
    )
    # NaN, inf and values beyond int64 are rejected before the cast, which
    # would warn on them
    if not np.all((np.abs(data[:, -1]) < 2.0**63) & (np.trunc(data[:, -1]) == data[:, -1])):
        raise ValueError("trailing column must hold integer labels")
    return data, data[:, -1].astype(np.int64)


def entry_path(path) -> str:
    """``$XDG_CACHE_HOME/dpclip/<TAG>-<sha256 of the file>.npy``."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(functools.partial(fh.read, 1 << 20), b""):
            digest.update(block)
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # unset, empty or relative: the XDG default
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(root, "dpclip", f"{TAG}-{digest.hexdigest()}.npy")


def _cached_loadtxt(path, columns: int, **kwargs) -> np.ndarray:
    """``np.loadtxt(path, **kwargs)``, read from the cache when it holds the file.

    An entry is used only if it loads as a 2-D float64 array of ``columns``
    columns; anything else is parsed again and rewritten. The entry is
    written to a temporary file and renamed into place, so a reader never
    sees half of one. A cache that cannot be read or written is skipped, and
    a parse that fails raises before anything is written.
    """
    entry = entry_path(path)
    try:
        with open(entry, "rb") as fh:
            data = np.lib.format.read_array(fh, allow_pickle=False)
        if data.ndim == 2 and data.dtype == np.float64 and data.shape[1] == columns:
            return data
    except (OSError, ValueError, EOFError):
        pass
    data = np.loadtxt(path, **kwargs)
    tmp = f"{entry}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(entry), exist_ok=True)
        with open(tmp, "wb") as fh:
            np.lib.format.write_array(fh, data, allow_pickle=False)
        os.replace(tmp, entry)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
    return data
