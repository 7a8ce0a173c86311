"""Compare a command's CSV, or a kernel's array, with its expected copy under
a declared tolerance.

A run's bytes move with the kernels numpy and OpenBLAS pick (by up to 7e-16
relative on the c08 sweep), so an exact hash holds on one machine only. Here
each float may move by ``rel_tol`` relative or ``abs_tol`` absolute, and each
discrete column (the clip norm's kind, the chosen step size, seeds, sizes
and flag values) must be identical. An array's elements follow the same
rule, relative to a scale the caller may give, such as the summed
magnitudes of the terms that a sum rounds.
"""

from __future__ import annotations

import csv

import numpy as np

EXACT_COLUMNS = frozenset(
    {"tau_kind", "eta_best", "seed", "n", "k", "degenerate", "eps_total", "eps_rnmm"}
)


def _rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def within(expected, actual, rel_tol: float, abs_tol: float, scale=None) -> np.ndarray:
    """Elementwise, whether ``actual`` is within ``max(rel_tol * scale,
    abs_tol)`` of ``expected``; ``scale`` defaults to the larger magnitude of
    the two, which is ``math.isclose``. Two NaNs agree, and an infinity
    agrees only with itself."""
    e, a = np.asarray(expected, dtype=float), np.asarray(actual, dtype=float)
    if scale is None:
        scale = np.maximum(np.abs(e), np.abs(a))
    with np.errstate(invalid="ignore"):
        near = np.isfinite(e) & np.isfinite(a) & (
            np.abs(a - e) <= np.maximum(rel_tol * np.asarray(scale), abs_tol)
        )
    return near | (e == a) | (np.isnan(e) & np.isnan(a))


def _close(expected: str, actual: str, rel_tol: float, abs_tol: float) -> bool:
    try:
        e, a = float(expected), float(actual)
    except ValueError:
        return expected == actual
    return bool(within(e, a, rel_tol, abs_tol))


def csv_differences(expected, actual, rel_tol: float = 1e-12, abs_tol: float = 1e-15) -> list[str]:
    """Each way the CSV at ``actual`` differs from the one at ``expected``;
    an empty list when they agree."""
    (header, *want), (got_header, *got) = _rows(expected), _rows(actual)
    if got_header != header:
        return [f"header {got_header} != {header}"]
    if len(got) != len(want):
        return [f"{len(got)} rows != {len(want)}"]
    found = []
    for i, (e_row, a_row) in enumerate(zip(want, got), 1):
        if len(a_row) != len(header):
            found.append(f"row {i} has {len(a_row)} fields, not {len(header)}")
            continue
        for name, e, a in zip(header, e_row, a_row):
            same = e == a if name in EXACT_COLUMNS else _close(e, a, rel_tol, abs_tol)
            if not same:
                found.append(f"row {i} {name}: {a} != {e}")
    return found


def array_differences(
    expected, actual, scale=None, rel_tol: float = 1e-12, abs_tol: float = 1e-15
) -> list[str]:
    """Each element of the array ``actual`` that is not :func:`within` the
    tolerance of ``expected``; an empty list when they agree."""
    e, a = np.asarray(expected, dtype=float), np.asarray(actual, dtype=float)
    if a.shape != e.shape:
        return [f"shape {a.shape} != {e.shape}"]
    bad = ~within(e, a, rel_tol, abs_tol, scale)
    return [
        f"{[int(j) for j in i]}: {float(a[i])!r} != {float(e[i])!r}"
        for i in map(tuple, np.argwhere(bad))
    ]
