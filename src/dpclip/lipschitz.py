"""Per-sample Lipschitz statistics, clip-norm candidates and the clipped
suboptimality ratio estimated over sampled parameter points."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .losses import Problem


@dataclass(frozen=True)
class LipschitzProfile:
    """Sorted per-sample Lipschitz constants of a problem."""

    g: np.ndarray  # ascending

    @property
    def n(self) -> int:
        return self.g.size

    @property
    def minimum(self) -> float:
        return float(self.g[0])

    @property
    def maximum(self) -> float:
        return float(self.g[-1])


def build_profile(problem: Problem) -> LipschitzProfile:
    """Sort the per-sample constants ascending; ties keep index order."""
    g = np.asarray(problem.lipschitz, dtype=float)
    if not np.all(np.isfinite(g) & (g > 0)):
        raise ValueError("per-sample Lipschitz constants must be finite and positive")
    return LipschitzProfile(g=np.sort(g, kind="stable"))


def percentile(profile: LipschitzProfile, q: float) -> float:
    """Nearest-rank percentile: the ceil(q*n/100)-th order statistic, with q*n/100
    taken in decimal, so p16.1 of 1000 constants is the 161st.

    q = 0 returns the minimum and q = 100 the maximum.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    x = q * profile.n / 100.0
    # 16.1 * 1000 / 100 is 161.00000000000003 in binary: within 4 ulps, x is that integer
    rank = round(x)
    if abs(x - rank) > 4 * sys.float_info.epsilon * x:
        rank = math.ceil(x)
    rank = min(max(rank, 1), profile.n)
    return float(profile.g[rank - 1])


def alpha_estimate(
    problem: Problem,
    profile: LipschitzProfile,
    tau: float,
    w_samples: list[np.ndarray],
    min_gap: float = 1e-8,
) -> float:
    """Sampled upper bound on the clipped-to-unclipped suboptimality ratio.

    For each sampled w the ratio

        mean_i min(1/tau, 1/G_i) (f_i(w) - f_i^*)  /  mean_i (f_i(w) - f_i^*) / G_n

    is at least 1, non-increasing in tau and constant for tau <= G_1; the
    returned minimum over samples inherits those properties. Points whose
    mean per-sample gap is at most ``min_gap`` are treated as minimizers and
    skipped (the true infimum excludes minimizers exactly, which is not
    decidable numerically).
    """
    if problem.per_sample_min is None:
        raise ValueError("problem does not expose per-sample minima")
    if len(w_samples) == 0:
        raise ValueError("w_samples must be nonempty")
    g_max = profile.maximum
    if not 0 < tau <= g_max:
        raise ValueError(f"tau must lie in (0, {g_max}], got {tau}")
    inv_g = 1.0 / np.asarray(problem.lipschitz, dtype=float)
    coeff = np.minimum(1.0 / tau, inv_g)
    inv_g_max = 1.0 / g_max

    best = math.inf
    for w in w_samples:
        gaps = problem.losses_at(w) - problem.per_sample_min
        if float(gaps.mean()) <= min_gap:
            continue
        numer = float((coeff * gaps).mean())
        denom = float((gaps * inv_g_max).mean())
        best = min(best, numer / denom)
    if math.isinf(best):
        raise ValueError("all sampled points are (numerical) minimizers")
    return best
