"""Dataset CSV parsing for :func:`dpclip.losses.load_dataset_csv`, with a
cache of every parse keyed by the sha256 of the file's bytes.

Each cache entry is ``np.loadtxt``'s exact output for one file, kept by
:mod:`dpclip._cache` as ``$XDG_CACHE_HOME/dpclip/<TAG>-<sha256>.npy``
(``~/.cache/dpclip`` when that variable is unset). Only ``load_dataset_csv``
imports this module: without bytecode files every run compiles what it
imports, so a run that reads no CSV does not compile the loader.
"""

from __future__ import annotations

import csv

import numpy as np

from . import _cache

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
    columns = len(first)
    data = _cache.cached(
        TAG, _cache.file_digest(path),
        lambda: np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2, comments=None,
                           quotechar='"', encoding="utf-8-sig"),
        lambda data: data.ndim == 2 and data.dtype == np.float64 and data.shape[1] == columns,
    )
    # NaN, inf and values beyond int64 are rejected before the cast, which
    # would warn on them
    if not np.all((np.abs(data[:, -1]) < 2.0**63) & (np.trunc(data[:, -1]) == data[:, -1])):
        raise ValueError("trailing column must hold integer labels")
    return data, data[:, -1].astype(np.int64)

