"""Compare a command's CSV with its expected copy under a declared tolerance.

A run's bytes move with the kernels numpy and OpenBLAS pick (by up to 7e-16
relative on the c08 sweep), so an exact hash holds on one machine only. Here
each float may move by ``rel_tol`` relative or ``abs_tol`` absolute, and each
discrete column (the clip norm's kind, the chosen step size, seeds, sizes
and flag values) must be identical.
"""

from __future__ import annotations

import csv
import math

EXACT_COLUMNS = frozenset(
    {"tau_kind", "eta_best", "seed", "n", "k", "degenerate", "eps_total", "eps_rnmm"}
)


def _rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _close(expected: str, actual: str, rel_tol: float, abs_tol: float) -> bool:
    try:
        e, a = float(expected), float(actual)
    except ValueError:
        return expected == actual
    return (math.isnan(e) and math.isnan(a)) or math.isclose(
        e, a, rel_tol=rel_tol, abs_tol=abs_tol
    )


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
