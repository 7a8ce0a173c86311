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


def clip_rows(rows: np.ndarray, c: float) -> np.ndarray:
    """Rescale every row of a 2-D array to norm at most c; zero rows stay zero.

    Rows with norm at most c are scaled by exactly 1.0, so the no-op case is
    bit-identical to the input row.
    """
    if not c > 0:
        raise ValueError(f"clip threshold must be positive, got {c}")
    rows = np.ascontiguousarray(rows, dtype=float)
    norms = np.sqrt(np.sum(rows * rows, axis=1))
    scale = np.ones_like(norms)
    over = norms > c
    scale[over] = c / norms[over]
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
    """Markov relaxation E||v||^p / tau^{p-1}; looser but tau-explicit."""
    if not p > 1:
        raise ValueError("p must be > 1")
    if not tau > 0:
        raise ValueError("tau must be positive")
    norms = dist.norms()
    return float(dist.probs @ norms**p) / tau ** (p - 1.0)
