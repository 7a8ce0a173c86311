"""Dataset CSV parsing for :func:`dpclip.losses.load_dataset_csv`, with an
on-disk cache of every parse keyed by the sha256 of the file's bytes.

Each cache entry is ``np.loadtxt``'s exact output for one file, kept as
``$XDG_CACHE_HOME/dpclip/<TAG>-<sha256>.npy`` (``~/.cache/dpclip`` when that
variable is unset, empty or relative). A cache that is missing, unreadable,
unwritable or holds a spoiled entry only costs the parse again. Only
``load_dataset_csv`` imports this module: without bytecode files every run
compiles what it imports, so a run that reads no CSV does not compile the
loader.
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


def _entry_path(path) -> str:
    """``$XDG_CACHE_HOME/dpclip/<TAG>-<sha256 of the file's bytes>.npy``."""
    key = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(functools.partial(fh.read, 1 << 20), b""):
            key.update(block)
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # unset, empty or relative: the XDG default
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(root, "dpclip", f"{TAG}-{key.hexdigest()}.npy")


def _parse(path, skiprows: int, columns: int) -> np.ndarray:
    """``np.loadtxt``'s (rows, columns) parse of the file's data rows.

    The cache entry is read back when it holds a float64 array of that many
    columns. Otherwise the file is parsed, and the parse is written to a
    pid-named temporary file and renamed into place, so a reader never sees
    half of an entry. A cache that cannot be read or written is skipped, and
    a parse that raises writes nothing.
    """
    entry = _entry_path(path)
    try:
        with open(entry, "rb") as fh:
            data = np.lib.format.read_array(fh, allow_pickle=False)
        if data.ndim == 2 and data.dtype == np.float64 and data.shape[1] == columns:
            return data
    except (OSError, ValueError, EOFError):
        pass
    data = np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2, comments=None,
                      quotechar='"', encoding="utf-8-sig")
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


def read(path) -> np.ndarray:
    """Rows of d floats plus a trailing label, header optional, as one
    (rows, d + 1) float array; :func:`dpclip.losses.load_dataset_csv` checks
    that the labels are integers.

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
    data = _parse(path, skiprows, len(first))
    return data
