"""Per-sample norm clipping and exact clipping-bias oracles.

The bias oracles operate on finite discrete vector distributions so that every
expectation is an exact enumeration; the two analytic upper bounds evaluated
here bracket the exact bias from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis: ``sqrt(sum(x * x))``, which is
    ``np.linalg.norm(x, axis=-1)`` bit for bit.

    A finite row whose squares overflow (norm above about 1.3e154) is
    rescaled by its largest entry instead, so its norm is inf only beyond
    the float range; every other norm keeps the plain expression's bits.
    """
    # contiguous, because a strided last axis can change the summation order
    x = np.ascontiguousarray(x, dtype=float)
    with np.errstate(over="ignore"):
        norms = np.asarray(np.sqrt(np.sum(x * x, axis=-1)))
        if not np.isfinite(norms).all():
            redo = np.isinf(norms) & np.isfinite(x).all(axis=-1)
            top = np.abs(x[redo]).max(axis=-1, keepdims=True)
            norms[redo] = top[:, 0] * np.sqrt(np.sum((x[redo] / top) ** 2, axis=-1))
    return norms


def clip_rows(rows: np.ndarray, c: float | np.ndarray) -> np.ndarray:
    """Rescale each row, a vector along the last axis, by its
    :func:`clip_scales` factor to norm at most its threshold.

    ``c`` broadcasts against ``rows.shape[:-1]``: one threshold for every
    row, one per row, or a (K, 1) column giving each block of a (K, B, dim)
    stack its own.
    """
    c = np.asarray(c, dtype=float)
    bad = ~(c > 0)
    if bad.any():
        raise ValueError(f"clip threshold must be positive, got {c[bad][0]}")
    rows = np.ascontiguousarray(rows, dtype=float)
    try:
        np.broadcast_to(c, rows.shape[:-1])
    except ValueError:
        shape = rows.shape[:-1]
        raise ValueError(f"need one clip threshold per row: {c.shape} for {shape}") from None
    return rows * clip_scales(rows, c)[..., None]


def clip_scales(rows: np.ndarray, c: float | np.ndarray) -> np.ndarray:
    """Each row's clip scale ``min(1, c / norm)``, c broadcast unchecked against
    ``rows.shape[:-1]``; fmin takes 1.0 over an infinite c / norm and inf / inf
    = NaN, so a zero, NaN or at-most-c norm, or c = inf, keeps the row's bits."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.fmin(1.0, c / row_norms(rows))


def clip(z: np.ndarray, c: float) -> np.ndarray:
    """Rescale the vector z to norm at most c, preserving direction: the
    :func:`clip_rows` kernel on one vector."""
    return clip_rows(z, c)


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
        return row_norms(self.vectors)


def clipping_bias_exact(dist: DiscreteVectorDistribution, tau: float) -> float:
    """||E[v] - E[clip(v, tau)]|| by full enumeration over the support."""
    gap = dist.mean() - dist.probs @ clip_rows(dist.vectors, tau)
    with np.errstate(over="ignore"):
        bias = float(np.linalg.norm(gap))
    # np.linalg.norm squares too: past about 1.3e154 take row_norms' rescaling
    return bias if math.isfinite(bias) else float(row_norms(gap))


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
