"""Objective families: multinomial logistic regression, geometric median,
the two-atom hard instance, and synthetic heavy-tailed data generation.

Each family is packaged as a :class:`Problem` exposing per-sample losses,
(sub)gradients, per-sample Lipschitz constants and per-sample minima.
Subgradients at kinks return the minimal-norm element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clipping import row_norms


def _integer_labels(labels) -> np.ndarray:
    """``labels`` as ints; integral floats such as 1.0 pass, and a label that
    is fractional, NaN, infinite or beyond int64 fails, naming its row."""
    if np.asarray(labels).dtype.kind not in "biu":
        floats = np.asarray(labels, dtype=float)
        bad = ~((np.abs(floats) < 2.0**63) & (np.trunc(floats) == floats))
        if np.any(bad):
            raise ValueError(f"non-integral label in row {int(np.argmax(bad))}")
    return np.asarray(labels, dtype=int)


@dataclass
class Dataset:
    """Feature matrix, stored C-contiguous, with integer class labels."""

    features: np.ndarray  # (n, d): every family sums a row in one order
    labels: np.ndarray  # (n,)
    bias_appended: bool = False

    def __post_init__(self):
        self.features = np.atleast_2d(np.ascontiguousarray(self.features, dtype=float))
        self.labels = _integer_labels(self.labels)
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

    The file is parsed by :func:`dpclip._dataset_csv.read`, which keeps each
    parse in a cache keyed by the sha256 of the file's bytes. With
    ``append_bias`` the label column is overwritten with the constant-1
    coordinate, so the loaded array is the feature matrix as it stands.
    """
    from ._dataset_csv import read  # only runs that load a CSV compile it

    data = read(path)
    labels = _integer_labels(data[:, -1])
    if append_bias:
        data[:, -1] = 1.0
    else:
        data = np.ascontiguousarray(data[:, :-1])
    return Dataset(data, labels, append_bias)


@dataclass
class Problem:
    """An ERM objective bundle: f(w) = (1/n) sum_i f_i(w).

    The contract is batch-first: ``batch_loss(w, idx)`` returns the
    per-sample losses f_i(w) for i in ``idx``, and ``batch_grad(W, idx)``
    takes a stack ``W`` of K iterates, shape (K, dim), and returns the
    config-major (K * len(idx), dim) matrix of their (sub)gradients: rows
    k * len(idx) to (k + 1) * len(idx) are iterate k's, bitwise what iterate
    k gives alone. Every objective family supplies exactly these two. A
    problem given scalar ``loss(w, i)`` and ``grad(w, i)`` instead is lifted
    to batch form once, at construction, by looping over iterates and
    indices.

    ``lipschitz[i]`` upper-bounds the per-sample (sub)gradient norm;
    ``per_sample_min[i]``, when present, is min_w f_i(w). ``objective(w)`` and
    ``full_gradient(w)`` are the mean loss and gradient over all n samples.

    A family may also supply ``clipped_sum(W, idx, taus)``: for a (K, dim)
    stack ``W`` and a (K,) vector of clip thresholds, the (K, dim) sums of
    each iterate's gradient rows over ``idx``, each row clipped to its
    iterate's threshold, each iterate's sum bitwise what it gives alone. It
    stands in for ``clip_rows(grads_at(W, idx).reshape(K, len(idx), dim),
    taus[:, None]).sum(axis=1)``, which is what
    :func:`dpclip.optimizer.dp_sgd_step` computes without one, and may round
    differently: each element within 1e-12 times the summed magnitudes of
    the clipped rows there, and each row, clipped, of norm at most its
    threshold times 1 + 1e-12. An iterate whose every row has norm below its
    threshold by more than that factor must give that sum bit for bit.
    """

    n: int
    dim: int
    lipschitz: np.ndarray
    per_sample_min: np.ndarray | None = None
    batch_loss: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    batch_grad: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    loss: Callable[[np.ndarray, int], float] | None = None
    grad: Callable[[np.ndarray, int], np.ndarray] | None = None
    clipped_sum: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        batch = self.batch_loss is not None or self.batch_grad is not None
        pair = ("batch_loss", "batch_grad") if batch else ("loss", "grad")
        missing = " and ".join(name for name in pair if getattr(self, name) is None)
        if missing:
            need = "a Problem needs batch_loss and batch_grad, or loss and grad"
            raise ValueError(f"{need}; {missing} missing")
        if not batch:
            loss, grad, dim = self.loss, self.grad, self.dim

            def batch_loss(w, idx):
                return np.array([loss(w, int(i)) for i in idx], dtype=float)

            def batch_grad(W, idx):
                rows = [grad(w, int(i)) for w in W for i in idx]
                return np.array(rows, dtype=float).reshape(len(W) * len(idx), dim)

            self.batch_loss, self.batch_grad = batch_loss, batch_grad

    def losses_at(self, w: np.ndarray, indices: np.ndarray | None = None) -> np.ndarray:
        idx = np.arange(self.n) if indices is None else np.asarray(indices, dtype=np.intp)
        return self.batch_loss(w, idx)

    def grads_at(self, w: np.ndarray, indices: np.ndarray | None = None) -> np.ndarray:
        """The (len(idx), dim) gradient rows at one iterate ``w``, or at a
        (K, dim) stack of iterates the config-major (K * len(idx), dim) rows."""
        idx = np.arange(self.n) if indices is None else np.asarray(indices, dtype=np.intp)
        return self.batch_grad(np.atleast_2d(w), idx)

    def objective(self, w: np.ndarray) -> float:
        return float(self.losses_at(w).mean())

    def full_gradient(self, w: np.ndarray) -> np.ndarray:
        return self.grads_at(w).sum(axis=0) / self.n


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


def _class_sum(rows: np.ndarray) -> np.ndarray:
    """Sum the m rows of a class-major (m, ...) array bitwise as numpy sums
    the rows of the row-major (..., m) array: left to right below 8 classes,
    as numpy does, and from 8 on by numpy itself, on a row-major copy."""
    if len(rows) < 8:
        return rows.sum(axis=0)
    return np.ascontiguousarray(np.moveaxis(rows, 0, -1)).sum(axis=-1)


def _column_norms(P: np.ndarray) -> np.ndarray:
    """The (K, B) norms ||P[:, k, b]|| of a class-major (m, K, B) array, each
    the same bits at any K and B. A column whose squares sum below 2**-900
    may have lost digits to underflow, so it is recomputed by hypot, which
    squares nothing."""
    squares = _class_sum(P * P)
    norms = np.sqrt(squares)
    low = squares < 2.0**-900
    if low.any():
        norms[low] = np.hypot.reduce(P[:, low], axis=0)
    return norms


def _summed_in_order(P: np.ndarray, Xb: np.ndarray) -> np.ndarray:
    """The (K, m, d) sums over b of the rows P[:, k, b] x_b of a class-major
    (m, K, B) array and C-contiguous (B, d) rows, each added in batch order,
    bitwise ``grads_at``'s rows so added.

    No ``optimize=``. From d = 2 on, the two-operand einsum: x_b's d-stride is
    below its b-stride, so numpy's iterator keeps d innermost and adds each
    output element's rows in order, at every batch size. At d = 1 its inner
    loop would be the batch reduction, which numpy's SIMD dot sums in lanes,
    so there a third operand of unit scales keeps the batch an outer loop."""
    if Xb.shape[1] == 1:
        return np.einsum("mkb,bd,kb->kmd", P, Xb, np.ones(P.shape[1:]))
    return np.einsum("mkb,bd->kmd", P, Xb)


def logistic_problem(dataset: Dataset, num_classes: int | None = None) -> Problem:
    """Multinomial logistic ERM over the dataset's rows as stored.

    The per-sample Lipschitz constant is sqrt(2) times the stored row norm,
    so append the bias coordinate before calling when one is wanted. The
    per-sample infimum of the cross-entropy is 0.

    Its ``clipped_sum`` never forms the (K, B, m d) gradient block. A row's
    gradient is the rank-one (p - e_y) x, whose norm is ||p - e_y|| ||x||, so
    the clipped sum of an iterate that clips a row is one (m, B) by (B, d)
    gemm (ghost clipping), and only those iterates take it. An iterate none
    of whose rows is clipped instead adds its rows in batch order by
    ``_summed_in_order``: ``einsum("mkb,bd->kmd")`` from d = 2 on, and at
    d = 1, where that form sums the batch in SIMD lanes, a third operand of
    unit scales. Either is bitwise ``grads_at``'s rows added in order, so an
    unclipped full-batch run keeps the bits of plain gradient descent. It,
    ``batch_grad`` and ``batch_loss`` start from the same shifted logits in
    m contiguous (K, B) class planes, so the softmax and ||p - e_y|| run
    over planes rather than K B rows of m classes each.
    """
    X = dataset.features
    y = dataset.labels
    n, d = X.shape
    m = int(num_classes) if num_classes is not None else dataset.num_classes
    if m < 2:
        raise ValueError("at least two classes required")
    if int(y.max()) >= m:
        raise ValueError("labels exceed the declared number of classes")
    # one block of rows at a time, so the n x d square is never held whole
    x_norms = np.empty(n)
    for start in range(0, n, _ROW_BLOCK):
        x_norms[start : start + _ROW_BLOCK] = row_norms(X[start : start + _ROW_BLOCK])
    with np.errstate(over="ignore"):
        lipschitz = math.sqrt(2.0) * x_norms
    bad = ~np.isfinite(lipschitz)
    if np.any(bad):
        raise ValueError(
            f"the Lipschitz constant of row {int(np.argmax(bad))} overflows;"
            " per-sample Lipschitz constants must be finite"
        )

    classes = np.arange(m)[:, None]

    def shifted_logits(W: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (B, d) rows X[idx] and the class-major (m, K, B) logits of the
        (K, m d) stack ``W``, each row shifted by its largest logit."""
        Xb = X.take(idx, axis=0)  # X[idx]'s copy, gathered faster
        K = len(W)
        # one gemm per iterate, each the call a single iterate makes (W @ Xb.T
        # would round differently), copied once into m contiguous (K, B)
        # class planes. The class max and sum then run plane by plane, in the
        # order of a row-wise max and sum
        Z = np.ascontiguousarray((Xb @ W.reshape(K, m, d).transpose(0, 2, 1)).transpose(2, 0, 1))
        Z -= Z.max(axis=0)
        return Xb, Z

    def batch_loss(w: np.ndarray, idx: np.ndarray) -> np.ndarray:
        z = shifted_logits(w.reshape(1, -1), idx)[1][:, 0]
        return np.log(_class_sum(np.exp(z))) - z[y[idx], np.arange(len(idx))]

    def coefficients(W: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """shifted_logits' rows, and its planes turned into P = p - e_y: iterate
        k's gradient at row b is the outer product P[:, k, b] x_b."""
        Xb, P = shifted_logits(W, idx)
        np.exp(P, out=P)
        P /= _class_sum(P)
        # subtract the one-hot planes: 1.0 at each row's true class, and 0.0,
        # which leaves p bitwise, at the others
        P -= (y[idx] == classes)[:, None, :]
        return Xb, P

    def batch_grad(W: np.ndarray, idx: np.ndarray) -> np.ndarray:
        Xb, P = coefficients(W, idx)
        K, B = P.shape[1:]
        return np.einsum("mkb,bd->kbmd", P, Xb).reshape(K * B, m * d)

    def clipped_sum(W: np.ndarray, idx: np.ndarray, taus: np.ndarray) -> np.ndarray:
        Xb, P = coefficients(W, idx)
        K, B = P.shape[1:]
        xn = x_norms[idx]
        c_norm = _column_norms(P)
        # c_norm <= sqrt(2), and sqrt(2) ||x_b|| is a finite Lipschitz constant
        clips = (c_norm * xn > taus[:, None]).any(axis=1)
        if not clips.any():
            return _summed_in_order(P, Xb).reshape(K, m * d)
        out = np.empty((K, m, d))
        if not clips.all():
            out[~clips] = _summed_in_order(P[:, ~clips], Xb)
        # row (k, b) clipped is (a P[:, k, b]) u_b with u_b = x_b / ||x_b||, 0
        # for a zero row, and a = min(||x_b||, tau_k / ||P[:, k, b]||): neither
        # factor underflows where the row does not, as P s would for
        # s = tau / ||row||. One gemm per clipping iterate, each the call it
        # makes alone
        with np.errstate(divide="ignore", over="ignore"):
            a = np.fmin(xn, taus[clips, None] / c_norm[clips])
        U = np.divide(Xb.T, xn, out=np.zeros((d, B)), where=xn > 0)
        Pa = P.compress(clips, axis=1)
        Pa *= a
        out[clips] = np.matmul(Pa.transpose(1, 0, 2), U.T)
        return out.reshape(K, m * d)

    return Problem(
        n=n,
        dim=m * d,
        lipschitz=lipschitz,
        per_sample_min=np.zeros(n),
        batch_loss=batch_loss,
        batch_grad=batch_grad,
        clipped_sum=clipped_sum,
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
        return row_norms(w - A[idx])

    def batch_grad(W: np.ndarray, idx: np.ndarray) -> np.ndarray:
        delta = W[:, None, :] - A[idx]
        norms = row_norms(delta)
        out = np.zeros_like(delta)
        nz = norms > 0
        out[nz] = delta[nz] / norms[nz, None]
        return out.reshape(len(W) * len(idx), d)

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
        4.0 * float(np.mean(row_norms(A - centroid))),
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
    norms = row_norms(X)

    def batch_loss(w: np.ndarray, idx: np.ndarray) -> np.ndarray:
        hinge = max(float(np.linalg.norm(w)) - 1.0, 0.0)
        return -(X[idx] @ w) + 2.0 * norms[idx] * hinge

    def batch_grad(W: np.ndarray, idx: np.ndarray) -> np.ndarray:
        B = len(idx)
        out = np.tile(-X[idx], (len(W), 1))
        for k, w in enumerate(W):
            # rows at ||w|| <= 1 are left as -x, so a -0.0 entry stays -0.0
            wnorm = float(np.linalg.norm(w))
            if wnorm > 1.0:
                out[k * B : (k + 1) * B] += np.outer(2.0 * norms[idx] / wnorm, w)
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


def _check_sizes(n: int, d: int, m: int) -> None:
    for name, value, low in (
        ("n (samples)", n, 1), ("d (features)", d, 1), ("m (classes)", m, 2)
    ):
        if not value >= low:
            raise ValueError(f"{name} must be >= {low}, got {value!r}")


def _radial_dataset(
    n: int, d: int, m: int, rng: np.random.Generator, radii: Callable[[], np.ndarray]
) -> Dataset:
    """Features r * u: the n unit directions u are drawn first, then the n
    radii by ``radii()``, then the planted labels, all from ``rng``."""
    u = rng.normal(size=(n, d))
    u /= row_norms(u)[:, None]
    X = u * radii()[:, None]
    # noiseless linear rule: labels are exactly realisable, so the relaxed
    # interpolation condition holds by construction
    w_true = rng.normal(size=(m, d))
    return Dataset(X, np.argmax(X @ w_true.T, axis=1))


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
    _check_sizes(n, d, m)
    if not (tail_k > 1):
        raise ValueError("tail_k must exceed 1")
    if math.isinf(tail_k):
        return _radial_dataset(n, d, m, rng, lambda: np.ones(n))
    return _radial_dataset(n, d, m, rng, lambda: 1.0 + rng.pareto(tail_k + 1.0, size=n))


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
    _check_sizes(n, d, m)
    if not 0 < norm_low <= norm_high < math.inf:
        raise ValueError(
            f"need 0 < norm_low <= norm_high < inf, got {norm_low!r} and {norm_high!r}"
        )
    low, high = math.log(norm_low), math.log(norm_high)
    return _radial_dataset(n, d, m, rng, lambda: np.exp(rng.uniform(low, high, size=n)))
