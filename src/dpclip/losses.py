"""Objective families: multinomial logistic regression, geometric median,
the two-atom hard instance, and synthetic heavy-tailed data generation.

Each family is packaged as a :class:`Problem` exposing per-sample losses,
(sub)gradients, per-sample Lipschitz constants and per-sample minima.
Subgradients at kinks return the minimal-norm element.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Dataset:
    """Feature matrix with integer class labels."""

    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,)
    bias_appended: bool = False

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels must have the same length")
        if self.features.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if np.any(self.labels < 0):
            raise ValueError("labels must be nonnegative integers")
        bad = ~np.isfinite(self.features).all(axis=1)
        if np.any(bad):
            raise ValueError(f"non-finite feature in row {int(np.argmax(bad))}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    def with_bias(self) -> "Dataset":
        """Return a copy with a constant-1 coordinate appended to every row."""
        if self.bias_appended:
            raise ValueError("bias coordinate already appended")
        ones = np.ones((self.n, 1))
        return Dataset(np.hstack([self.features, ones]), self.labels.copy(), True)


def load_dataset_csv(path, append_bias: bool = False) -> Dataset:
    """Load rows of d floats plus a trailing integer label; header optional.

    Only the first non-blank records are read with :mod:`csv`, to tell a
    header from data; numpy's C reader then parses every data row. With
    ``append_bias`` the label column is overwritten with the constant-1
    coordinate, so the loaded array is the feature matrix as it stands.
    """
    with open(path, newline="", encoding="utf-8") as fh:
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
    data = np.loadtxt(
        path, delimiter=",", skiprows=skiprows, ndmin=2, comments=None,
        quotechar='"', encoding="utf-8",
    )
    labels = data[:, -1].astype(int)
    if np.any(data[:, -1] != labels):
        raise ValueError("trailing column must hold integer labels")
    if append_bias:
        data[:, -1] = 1.0
    else:
        data = np.ascontiguousarray(data[:, :-1])
    return Dataset(data, labels, append_bias)


@dataclass
class Problem:
    """An ERM objective bundle: f(w) = (1/n) sum_i f_i(w).

    The contract is batch-first: ``batch_loss(w, idx)`` returns the
    per-sample losses f_i(w) for i in ``idx`` and ``batch_grad(w, idx)`` the
    (len(idx), dim) matrix of their (sub)gradients. Every objective family
    supplies exactly these two. A problem given scalar ``loss(w, i)`` and
    ``grad(w, i)`` instead is lifted to batch form once, at construction, by
    looping over indices.

    ``lipschitz[i]`` upper-bounds the per-sample (sub)gradient norm;
    ``per_sample_min[i]``, when present, is min_w f_i(w).

    ``value_and_grad(w)`` returns ``(objective(w), full_gradient(w))`` in one
    call; the reference oracle uses it. A family may supply
    ``full_value_and_grad(w)``, a fused full-data pass that must give exactly
    these two values, bit for bit; without one the two are computed apart.
    """

    n: int
    dim: int
    lipschitz: np.ndarray
    per_sample_min: np.ndarray | None = None
    batch_loss: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    batch_grad: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    loss: Callable[[np.ndarray, int], float] | None = None
    grad: Callable[[np.ndarray, int], np.ndarray] | None = None
    full_value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]] | None = None

    def __post_init__(self):
        if self.batch_loss is None:
            loss, grad, dim = self.loss, self.grad, self.dim

            def batch_loss(w, idx):
                return np.array([loss(w, int(i)) for i in idx], dtype=float)

            def batch_grad(w, idx):
                rows = [grad(w, int(i)) for i in idx]
                return np.array(rows, dtype=float).reshape(len(idx), dim)

            self.batch_loss, self.batch_grad = batch_loss, batch_grad

    def losses_at(self, w: np.ndarray, indices: np.ndarray | None = None) -> np.ndarray:
        idx = np.arange(self.n) if indices is None else np.asarray(indices, dtype=np.intp)
        return self.batch_loss(w, idx)

    def grads_at(self, w: np.ndarray, indices: np.ndarray | None = None) -> np.ndarray:
        idx = np.arange(self.n) if indices is None else np.asarray(indices, dtype=np.intp)
        return self.batch_grad(w, idx)

    def objective(self, w: np.ndarray) -> float:
        return float(self.losses_at(w).mean())

    def full_gradient(self, w: np.ndarray) -> np.ndarray:
        return self.grads_at(w).sum(axis=0) / self.n

    def value_and_grad(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        if self.full_value_and_grad is not None:
            return self.full_value_and_grad(w)
        return self.objective(w), self.full_gradient(w)


# ---------------------------------------------------------------------------
# Multinomial logistic regression
# ---------------------------------------------------------------------------


def _check_logistic_shapes(w: np.ndarray, x: np.ndarray, y: int) -> int:
    d = x.size
    if d == 0 or w.size % d != 0:
        raise ValueError(f"parameter size {w.size} is not a multiple of feature size {d}")
    m = w.size // d
    if m < 2:
        raise ValueError("at least two classes required")
    if not 0 <= y < m:
        raise ValueError(f"label {y} out of range for {m} classes")
    return m


def logistic_loss(w: np.ndarray, x: np.ndarray, y: int) -> float:
    """Softmax cross-entropy -log p_y with log-sum-exp stabilisation.

    ``w`` concatenates one d-dimensional block per class.
    """
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    m = _check_logistic_shapes(w, x, y)
    logits = w.reshape(m, x.size) @ x
    z = logits - logits.max()
    return float(np.log(np.exp(z).sum()) - z[y])


def logistic_grad(w: np.ndarray, x: np.ndarray, y: int) -> np.ndarray:
    """Gradient of the cross-entropy: block j equals (p_j - 1{j=y}) * x."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    m = _check_logistic_shapes(w, x, y)
    logits = w.reshape(m, x.size) @ x
    z = np.exp(logits - logits.max())
    p = z / z.sum()
    coeff = p.copy()
    coeff[y] -= 1.0
    return np.outer(coeff, x).ravel()


def logistic_grad_norm_exact(p: np.ndarray, y: int, x_norm: float) -> float:
    """Closed-form gradient norm sqrt(sum_{j != y} p_j^2 + (1-p_y)^2) * ||x||."""
    p = np.asarray(p, dtype=float)
    if abs(float(p.sum()) - 1.0) > 1e-8:
        raise ValueError("p must sum to 1")
    others = np.delete(p, y)
    return float(math.sqrt(float(others @ others) + (1.0 - p[y]) ** 2) * x_norm)


_ROW_BLOCK = 4096  # rows per block of the row-norm pass


def logistic_problem(dataset: Dataset, num_classes: int | None = None) -> Problem:
    """Multinomial logistic ERM over the dataset's rows as stored.

    The per-sample Lipschitz constant is sqrt(2) times the stored row norm,
    so append the bias coordinate before calling when one is wanted. The
    per-sample infimum of the cross-entropy is 0.
    """
    X = dataset.features
    y = dataset.labels
    n, d = X.shape
    m = int(num_classes) if num_classes is not None else dataset.num_classes
    if m < 2:
        raise ValueError("at least two classes required")
    if int(y.max()) >= m:
        raise ValueError("labels exceed the declared number of classes")
    # the features are finite, but a row norm can still overflow. One block of
    # rows is squared at a time, so the n x d square is never held whole; each
    # block uses the expression np.linalg.norm(X, axis=1) evaluates, so the
    # norms are bitwise its norms
    row_norms = np.empty(n)
    with np.errstate(over="ignore"):
        for start in range(0, n, _ROW_BLOCK):
            Xb = X[start : start + _ROW_BLOCK]
            row_norms[start : start + _ROW_BLOCK] = np.sqrt(np.add.reduce(Xb * Xb, axis=1))
    lipschitz = math.sqrt(2.0) * row_norms
    bad = ~np.isfinite(lipschitz)
    if np.any(bad):
        raise ValueError(
            f"the Lipschitz constant of row {int(np.argmax(bad))} overflows;"
            " per-sample Lipschitz constants must be finite"
        )

    def batch_loss(w: np.ndarray, idx: np.ndarray) -> np.ndarray:
        logits = X[idx] @ w.reshape(m, d).T
        zmax = logits.max(axis=1, keepdims=True)
        z = logits - zmax
        lse = np.log(np.exp(z).sum(axis=1))
        return lse - z[np.arange(len(idx)), y[idx]]

    def batch_grad(w: np.ndarray, idx: np.ndarray) -> np.ndarray:
        Xb = X[idx]
        logits = Xb @ w.reshape(m, d).T
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = z / z.sum(axis=1, keepdims=True)
        p[np.arange(len(idx)), y[idx]] -= 1.0
        return np.einsum("bm,bd->bmd", p, Xb).reshape(len(idx), m * d)

    onehot_at = np.arange(n) * m + y  # flat index of each row's true-class entry

    def full_value_and_grad(w: np.ndarray) -> tuple[float, np.ndarray]:
        # one logits pass and one exp shared by the mean loss and the summed
        # gradient, bitwise equal to batch_loss/batch_grad over all rows: the
        # row max is exact in any order, and einsum without optimize= adds
        # the rows sequentially, as grads_at(w).sum(axis=0) does, where a
        # BLAS (P - Y)^T X would not
        logits = X @ w.reshape(m, d).T
        z = logits - functools.reduce(np.maximum, logits.T)[:, None]
        e = np.exp(z)
        s = e.sum(axis=1)
        f = float((np.log(s) - z.ravel()[onehot_at]).mean())
        e /= s[:, None]
        e.ravel()[onehot_at] -= 1.0
        return f, np.einsum("bm,bd->md", e, X).ravel() / n

    return Problem(
        n=n,
        dim=m * d,
        lipschitz=lipschitz,
        per_sample_min=np.zeros(n),
        batch_loss=batch_loss,
        batch_grad=batch_grad,
        full_value_and_grad=full_value_and_grad,
    )


# ---------------------------------------------------------------------------
# Geometric median (sharpness example)
# ---------------------------------------------------------------------------


def geometric_median_problem(anchors: np.ndarray) -> Problem:
    """f_i(w) = ||w - anchor_i||, the canonical sharp nonsmooth convex family.

    Each f_i is 1-Lipschitz with infimum 0; the subgradient at an anchor is 0.
    """
    A = np.atleast_2d(np.asarray(anchors, dtype=float))
    n, d = A.shape

    def batch_loss(w: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return np.linalg.norm(w - A[idx], axis=1)

    def batch_grad(w: np.ndarray, idx: np.ndarray) -> np.ndarray:
        delta = w - A[idx]
        norms = np.linalg.norm(delta, axis=1)
        out = np.zeros_like(delta)
        nz = norms > 0
        out[nz] = delta[nz] / norms[nz, None]
        return out

    return Problem(
        n=n,
        dim=d,
        lipschitz=np.ones(n),
        per_sample_min=np.zeros(n),
        batch_loss=batch_loss,
        batch_grad=batch_grad,
    )


def sharpness_radius(anchors: np.ndarray, w_star: np.ndarray) -> float:
    """Radius beyond which suboptimality grows at rate 1/4 of the distance.

    Given a minimizer estimate w*, returns
    max(2 ||mean - w*||, (4/n) sum_i ||mean - anchor_i||).
    """
    A = np.atleast_2d(np.asarray(anchors, dtype=float))
    centroid = A.mean(axis=0)
    return max(
        2.0 * float(np.linalg.norm(centroid - w_star)),
        4.0 * float(np.mean(np.linalg.norm(A - centroid, axis=1))),
    )


# ---------------------------------------------------------------------------
# Hard instance for the unconstrained lower bound
# ---------------------------------------------------------------------------


def lower_bound_loss(w: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """-<w, x> + 2 ||x|| max(||w|| - 1, 0) and a subgradient.

    At ||w|| = 1 the hinge coefficient is taken as 0 (minimal-norm element).
    """
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    xnorm = float(np.linalg.norm(x))
    wnorm = float(np.linalg.norm(w))
    value = -float(w @ x) + 2.0 * xnorm * max(wnorm - 1.0, 0.0)
    sub = -x.copy()
    if wnorm > 1.0:
        sub = sub + (2.0 * xnorm / wnorm) * w
    return value, sub


@dataclass(frozen=True)
class QvSpec:
    """Two-atom distribution on {0, p^{-1/k} v} with P(nonzero atom) = p.

    ``v`` is binary with exactly half its coordinates equal to 1.
    """

    v: np.ndarray
    p: float
    k: float

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "v", v)
        if not np.all((v == 0) | (v == 1)):
            raise ValueError("v must be a binary vector")
        d = v.size
        if d % 2 != 0 or int(v.sum()) != d // 2:
            raise ValueError("v must have exactly d/2 coordinates equal to 1")
        if not 0 < self.p < 0.5:
            raise ValueError("p must lie in (0, 1/2)")
        if not self.k > 1:
            raise ValueError("k must exceed 1")

    @property
    def heavy_atom(self) -> np.ndarray:
        return self.p ** (-1.0 / self.k) * self.v


def sample_Qv_many(spec: QvSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` draws, one per row: the zero vector w.p. 1-p, else p^{-1/k} v."""
    mask = rng.random(count) < spec.p
    return np.outer(mask.astype(float), spec.heavy_atom)


def hard_instance_problem(xs: np.ndarray) -> Problem:
    """ERM over the hinge-penalised linear losses on the given samples.

    Per-sample Lipschitz constants are 3 ||x_i||; per-sample minima -||x_i||.
    """
    X = np.atleast_2d(np.asarray(xs, dtype=float))
    n, d = X.shape
    norms = np.linalg.norm(X, axis=1)

    def batch_loss(w: np.ndarray, idx: np.ndarray) -> np.ndarray:
        hinge = max(float(np.linalg.norm(w)) - 1.0, 0.0)
        return -(X[idx] @ w) + 2.0 * norms[idx] * hinge

    def batch_grad(w: np.ndarray, idx: np.ndarray) -> np.ndarray:
        out = -X[idx].copy()
        wnorm = float(np.linalg.norm(w))
        if wnorm > 1.0:
            out = out + np.outer(2.0 * norms[idx] / wnorm, w)
        return out

    return Problem(
        n=n,
        dim=d,
        lipschitz=3.0 * norms,
        per_sample_min=-norms,
        batch_loss=batch_loss,
        batch_grad=batch_grad,
    )


# ---------------------------------------------------------------------------
# Synthetic dataset generators
# ---------------------------------------------------------------------------


def _planted_labels(X: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    # noiseless linear rule: labels are exactly realisable, so the relaxed
    # interpolation condition holds by construction
    w_true = rng.normal(size=(m, X.shape[1]))
    return np.argmax(X @ w_true.T, axis=1)


def heavy_tailed_logistic_dataset(
    n: int,
    d: int,
    m: int,
    tail_k: float,
    rng: np.random.Generator,
) -> Dataset:
    """Features r * u with u uniform on the sphere and r Pareto(1, tail_k + 1).

    The radius law has E[r^tail_k] = tail_k + 1 finite but unbounded support;
    ``tail_k = math.inf`` degenerates to unit radii. Labels come from a
    planted noiseless linear rule.
    """
    if not (tail_k > 1):
        raise ValueError("tail_k must exceed 1")
    u = rng.normal(size=(n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    if math.isinf(tail_k):
        r = np.ones(n)
    else:
        r = 1.0 + rng.pareto(tail_k + 1.0, size=n)
    X = u * r[:, None]
    return Dataset(X, _planted_labels(X, m, rng))


def planted_logistic_dataset(
    n: int,
    d: int,
    m: int,
    rng: np.random.Generator,
    norm_low: float = 1.0,
    norm_high: float = 1.0,
) -> Dataset:
    """Separable logistic data with log-uniform feature norms in [low, high].

    Spreading the norms spreads the per-sample Lipschitz constants, giving a
    controllable max/min ratio.
    """
    if not 0 < norm_low <= norm_high:
        raise ValueError("need 0 < norm_low <= norm_high")
    u = rng.normal(size=(n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = np.exp(rng.uniform(math.log(norm_low), math.log(norm_high), size=n))
    X = u * r[:, None]
    return Dataset(X, _planted_labels(X, m, rng))
