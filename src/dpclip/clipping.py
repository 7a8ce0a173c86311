"""Per-sample norm clipping and exact clipping-bias oracles.

The bias oracles operate on finite discrete vector distributions so that every
expectation is an exact enumeration; the two analytic upper bounds evaluated
here bracket the exact bias from above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def clip(z: np.ndarray, c: float) -> np.ndarray:
    """Rescale z to norm at most c, preserving direction; one row of :func:`clip_rows`."""
    z = np.asarray(z, dtype=float)
    return clip_rows(z.reshape(1, -1), c).reshape(z.shape)


def clip_rows(rows: np.ndarray, c: float | np.ndarray) -> np.ndarray:
    """Rescale every row of a 2-D array to norm at most its threshold; zero
    rows stay zero.

    ``c`` is one threshold for every row or a vector of one per row. Rows
    with norm at most their threshold are scaled by exactly 1.0, so the no-op
    case is bit-identical to the input row.
    """
    c = np.asarray(c, dtype=float)
    bad = ~(c > 0)
    if bad.any():
        raise ValueError(f"clip threshold must be positive, got {c[bad][0]}")
    rows = np.ascontiguousarray(rows, dtype=float)
    if c.ndim and c.shape != rows.shape[:1]:
        raise ValueError(f"need one clip threshold per row: {c.shape} for {rows.shape[0]} rows")
    norms = np.sqrt(np.sum(rows * rows, axis=1))
    thresholds = np.broadcast_to(c, norms.shape)
    scale = np.ones_like(norms)
    over = norms > thresholds
    scale[over] = thresholds[over] / norms[over]
    return rows * scale[:, None]


@dataclass(frozen=True)
class DiscreteVectorDistribution:
    """Finitely supported vector distribution given by atoms and probabilities."""

    vectors: np.ndarray  # (m, d)
    probs: np.ndarray  # (m,)

    def __post_init__(self):
        vectors = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "probs", probs)
        if vectors.shape[0] != probs.shape[0]:
            raise ValueError("one probability per atom required")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")

    @classmethod
    def from_atoms(cls, atoms: list[tuple[np.ndarray, float]]) -> "DiscreteVectorDistribution":
        vectors = np.stack([np.atleast_1d(np.asarray(v, dtype=float)) for v, _ in atoms])
        probs = np.array([p for _, p in atoms], dtype=float)
        return cls(vectors=vectors, probs=probs)

    def mean(self) -> np.ndarray:
        return self.probs @ self.vectors

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.vectors, axis=1)


def clipping_bias_exact(dist: DiscreteVectorDistribution, tau: float) -> float:
    """||E[v] - E[clip(v, tau)]|| by full enumeration over the support."""
    clipped = clip_rows(dist.vectors, tau)
    return float(np.linalg.norm(dist.mean() - dist.probs @ clipped))


def bias_bound_lemma(dist: DiscreteVectorDistribution, tau: float, p: float) -> float:
    """Moment/tail bound (E||v||^p)^{1/p} P(||v|| >= tau)^{1-1/p} - tau P(||v|| >= tau)."""
    if not p > 1:
        raise ValueError("p must be > 1")
    norms = dist.norms()
    max_norm = float(norms.max())
    tail = float(dist.probs @ (norms >= tau))
    if max_norm == 0.0:
        return -tau * tail
    # factor out the largest norm so norms**p cannot overflow for large p
    moment = max_norm * float(dist.probs @ (norms / max_norm) ** p) ** (1.0 / p)
    return moment * tail ** (1.0 - 1.0 / p) - tau * tail


def bias_bound_corollary(dist: DiscreteVectorDistribution, tau: float, p: float) -> float:
    """Markov relaxation E||v||^p / tau^{p-1}; looser but tau-explicit.
    Finite or +inf for every p, never NaN."""
    if not p > 1:
        raise ValueError("p must be > 1")
    if not tau > 0:
        raise ValueError("tau must be positive")
    support = dist.probs > 0
    probs, norms = dist.probs[support], dist.norms()[support]
    max_norm = float(norms.max())
    if max_norm == 0.0:
        return 0.0
    tau = np.float64(tau)  # a numpy scalar overflows to inf, where a float raises
    with np.errstate(all="ignore"):
        bound = float(probs @ norms**p) / tau ** (p - 1.0)
        if not np.isfinite(bound):
            # E||v||^p or tau^{p-1} left the float range: factor out the
            # largest norm, as bias_bound_lemma does
            bound = tau * (max_norm / tau) ** p * float(probs @ (norms / max_norm) ** p)
    return float(bound)
