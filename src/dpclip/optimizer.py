"""DP-SGD engine with Poisson subsampling, per-sample clipping, Gaussian
noising and random-iterate output, the closed-form hyperparameter schedule
for the heavy-tailed unconstrained convex regime, and the non-private
reference oracle."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .clipping import clip_rows
from .losses import Problem
from .parallel import fork_map
from .privacy import NoiseSpec, PrivacyRegimeWarning, gaussian_noise


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class DpSgdConfig:
    """Inputs of one DP-SGD run.

    ``b`` is the expected batch size of Poisson subsampling and is always the
    divisor of the summed clipped gradients, even when the realized batch is
    smaller or empty. ``sigma_sq`` is the per-coordinate noise variance
    (typically from :func:`dpclip.privacy.noise_variance`).

    ``seed``, ``T``, ``b`` and whether ``sigma_sq > 0`` fix the random
    stream of a run; :func:`run_dp_sgd` groups configs that agree on these
    four and lets each group share its draws. So ``T`` must be an integer
    >= 1 and ``seed`` a nonnegative integer (numpy integers included): a
    missing seed would draw from OS entropy.
    """

    T: int
    eta: float
    tau: float
    b: float
    sigma_sq: float
    w0: np.ndarray
    seed: int = 0

    def __post_init__(self):
        self.w0 = np.asarray(self.w0, dtype=float)
        if not _is_int(self.T) or self.T < 1:
            raise ValueError(f"T must be an integer >= 1, got {self.T!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not 0 <= self.eta < math.inf:
            # eta = 0 is allowed as a degenerate no-op step
            raise ValueError(f"eta must be nonnegative and finite, got {self.eta!r}")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if not self.b > 0:
            raise ValueError("expected batch size must be positive")
        if not self.sigma_sq >= 0:
            raise ValueError(f"sigma_sq must be nonnegative, got {self.sigma_sq!r}")
        if self.sigma_sq == math.inf:
            raise ValueError("sigma_sq must be finite, got inf")
        bad = ~np.isfinite(self.w0)
        if bad.any():
            i = int(np.argmax(bad.ravel()))
            raise ValueError(f"w0 must be finite, got {float(self.w0.ravel()[i])} at index {i}")


def _check_batch(n: int, b: float) -> None:
    if not 0 < b <= n:
        raise ValueError(f"need 0 < b <= n, got b={b}, n={n}")


def poisson_sample(n: int, b: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of a Poisson-subsampled batch: each i included w.p. q = b/n.

    Two exact samplers, chosen from ``n`` and ``b`` alone. With
    ``chunk = int(b + 4·√b) + 16``:

    - ``64 * chunk > n``: one uniform per index, the set
      ``flatnonzero(rng.random(n) < q)``. O(n), but small n keep this
      stream: at n = 2000, b = 100 a batch costs about 10 µs either way,
      and a process's first geometric draw maps a further 0.2-0.4 MB of
      numpy's code.
    - ``64 * chunk <= n``: geometric gaps, O(b). The gaps between successive
      members of a Bernoulli(q) set, and the first member + 1, are i.i.d.
      Geometric(q) on {1, 2, ...}, so the indices ``cumsum(gaps) - 1`` below
      n have exactly the Bernoulli set's distribution. Gaps are drawn
      ``chunk`` at a time, 4σ above the mean batch size, until an index
      reaches n. Each gap is capped at n + 1, which keeps every index past
      n where it was and keeps the sum from overflowing: numpy returns
      INT64_MAX for q below about 1e-18. A q that underflows to 0.0 gives
      the empty batch, as the first sampler does.

    The two consume different draws, so the choice is part of the stream.
    """
    _check_batch(n, b)
    q = b / n
    chunk = int(b + 4.0 * math.sqrt(b)) + 16
    if 64 * chunk > n:
        return np.flatnonzero(rng.random(n) < q)
    if q == 0.0:
        return np.empty(0, dtype=np.int64)
    idx = np.minimum(rng.geometric(q, size=chunk), n + 1).cumsum() - 1
    while idx[-1] < n:
        more = np.minimum(rng.geometric(q, size=chunk), n + 1).cumsum() + idx[-1]
        idx = np.concatenate((idx, more))
    return idx[: np.searchsorted(idx, n)]


class _StepConstants:
    """What each step of configs stepped together reads from them: the shared
    ``b`` and noise spec, the (K,) clip thresholds, and the (K, 1) columns of
    step sizes and noise scales. :func:`run_dp_sgd` builds them once per group
    of configs, not on every step."""

    def __init__(self, problem: Problem, configs: list[DpSgdConfig]):
        b, noisy = configs[0].b, configs[0].sigma_sq > 0
        if any(c.b != b or (c.sigma_sq > 0) != noisy for c in configs):
            raise ValueError("configs stepped together must share b and whether sigma_sq > 0")
        self.b = b
        self.taus = np.array([c.tau for c in configs])
        self.etas = np.array([c.eta for c in configs])[:, None]
        self.noise = NoiseSpec(1.0, problem.dim) if noisy else None
        self.scales = np.array([math.sqrt(c.sigma_sq) for c in configs])[:, None]


def dp_sgd_step(
    w: np.ndarray,
    problem: Problem,
    config: DpSgdConfig | list[DpSgdConfig] | _StepConstants,
    rng: np.random.Generator,
) -> np.ndarray:
    """One update: sample, clip, average by the fixed b, noise, step.

    Given one iterate and one config, it returns the update. Given a (K, dim)
    stack of iterates and a list of K configs, it steps row k with config k
    and returns the (K, dim) stack of updates; a stack whose row count is not
    the number of configs is rejected before any draw. The
    configs then share one batch and one standard normal draw z, so they
    must agree on ``b`` and on whether ``sigma_sq > 0``; each adds its own
    ``sqrt(sigma_sq) * z``, which is bitwise the draw
    ``rng.normal(0, sqrt(sigma_sq), dim)`` a single config makes.
    :func:`run_dp_sgd` passes a group's constants, built once from its config
    list, in place of the list.

    The clipped sums come from ``problem.clipped_sum`` when the problem
    supplies one (logistic regression does). Otherwise one ``grads_at`` call
    gives every iterate's gradient rows, and one ``clip_rows`` call clips
    their (K, B, dim) block against the (K, 1) column of the configs'
    thresholds. The two paths agree to the rounding that ``Problem`` allows a
    ``clipped_sum``, and bit for bit on an iterate whose every row is below
    its threshold by more than that rounding.

    An empty Poisson batch has ``(0, dim)`` gradients whose clipped sum is the
    zero vector, so it contributes noise only. With sigma_sq = 0 no noise is
    drawn, so the step is bit-reproducible against plain (sub)gradient descent
    when clipping is inactive and b = n.
    """
    one = isinstance(config, DpSgdConfig)
    if isinstance(config, _StepConstants):
        step = config
    else:
        step = _StepConstants(problem, [config] if one else config)
    W = np.atleast_2d(w)
    if len(W) != len(step.taus):
        raise ValueError(
            f"need one config per iterate: got {len(step.taus)} for a stack of {len(W)}"
        )
    batch = poisson_sample(problem.n, step.b, rng)
    z = gaussian_noise(step.noise, rng) if step.noise is not None else None
    if problem.clipped_sum is not None:
        g = problem.clipped_sum(W, batch, step.taus) / step.b
    else:
        grads = problem.grads_at(W, batch).reshape(len(W), batch.size, problem.dim)
        g = clip_rows(grads, step.taus[:, None]).sum(axis=1) / step.b
    if z is not None:
        # 0.0 + scale * z is how numpy's normal(loc=0.0, scale) forms a draw
        g = g + (0.0 + step.scales * z)
    W = W - step.etas * g
    return W[0] if one else W


def run_dp_sgd(
    problem: Problem, config: DpSgdConfig | list[DpSgdConfig]
) -> np.ndarray | list[np.ndarray]:
    """Return the t̂-th iterate of T steps from w0, t̂ uniform on {0..T-1}.

    t̂ is drawn first, so the run stops after t̂ steps: no later step can
    change the output, and the noise is still calibrated for all T. Fully
    deterministic given the seed; the result is never ``config.w0`` itself.
    The checks a step would make run first, so they hold even when t̂ = 0.

    Given a sequence of configs, it returns their iterates in input order,
    each bitwise what the config gives alone. Configs with equal
    ``(seed, T, b, sigma_sq > 0)`` draw the same stream, so they form one
    group: one generator, one t̂, and one batch and noise draw per step,
    shared by the group's iterates as they are stepped together. Every
    config is checked before any draw.

    Each group's step constants (the thresholds, the step-size and
    noise-scale columns) are built once and passed to every
    :func:`dp_sgd_step` of the group.

    The groups run through :func:`dpclip.parallel.fork_map`, balanced on
    t̂ × group size. Each group's generator is opened and its t̂ drawn here,
    before any fork, so the results are bitwise the same on any number of
    CPUs.
    """
    one = isinstance(config, DpSgdConfig)
    configs = [config] if one else list(config)
    if not configs:
        raise ValueError("need at least one config")
    for c in configs:
        if c.w0.shape != (problem.dim,):
            raise ValueError(f"w0 must have shape ({problem.dim},), got {c.w0.shape}")
        _check_batch(problem.n, c.b)
    groups: dict[tuple, list[int]] = {}
    for i, c in enumerate(configs):
        groups.setdefault((c.seed, c.T, c.b, c.sigma_sq > 0), []).append(i)
    tasks = []
    for (seed, T, _, _), members in groups.items():
        rng = np.random.default_rng(seed)
        tasks.append((members, rng, int(rng.integers(T))))

    def run_group(task):
        members, rng, t_hat = task
        group = [configs[i] for i in members]
        W = np.stack([c.w0 for c in group])
        step = _StepConstants(problem, group)
        for _ in range(t_hat):
            W = dp_sgd_step(W, problem, step, rng)
        return list(W)

    out = [None] * len(configs)
    weights = [t_hat * len(members) for members, _, t_hat in tasks]
    for (members, _, _), ws in zip(tasks, fork_map(run_group, tasks, weights)):
        for i, w in zip(members, ws):
            out[i] = w
    return out[0] if one else out


# ---------------------------------------------------------------------------
# Hyperparameter schedule
# ---------------------------------------------------------------------------


def _check_phi(phi: float) -> None:
    if not phi > 0:
        raise ValueError("phi must be positive")
    if phi >= 1:
        warnings.warn(
            f"phi = {phi:.4g} >= 1; schedules assume phi < 1",
            PrivacyRegimeWarning,
            stacklevel=3,
        )


def _check_gamma(gamma: float) -> None:
    # gamma = 1 is tolerated as a non-private-analysis sentinel
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    if gamma == 1.0:
        warnings.warn(
            "gamma = 1 is outside the (0, 1) range of the guarantees",
            PrivacyRegimeWarning,
            stacklevel=3,
        )


def schedule_unconstrained_convex(
    G: float, gamma: float, C: float, T: int, phi: float, k: float
) -> tuple[float, float]:
    """Heavy-tailed unconstrained convex schedule.

    tau = (G / gamma^{1/k}) (1/T + phi^2)^{-1/(k+1)},
    eta = (C / (T tau)) (1/T + phi^2)^{-1/2}.
    """
    _check_phi(phi)
    _check_gamma(gamma)
    if not (G > 0 and C > 0 and T >= 1 and k > 1):
        raise ValueError("need G > 0, C > 0, T >= 1, k > 1")
    base = 1.0 / T + phi * phi
    tau = (G / gamma ** (1.0 / k)) * base ** (-1.0 / (k + 1.0))
    if not 0 < tau < math.inf:
        raise ValueError(
            f"schedule clip norm is {tau!r} at phi = {phi:.4g}: "
            "phi^2 is out of float range (epsilon too small)"
        )
    eta = (C / (T * tau)) * base**-0.5
    if not 0 < eta < math.inf:
        raise ValueError(
            f"schedule step size is {eta!r} at clip norm {tau!r}: "
            "C / (T tau) is out of float range"
        )
    return tau, eta


# ---------------------------------------------------------------------------
# The non-private reference oracle
# ---------------------------------------------------------------------------


def subgradient_descent(
    problem: Problem,
    w0: np.ndarray,
    eta: float,
    T: int,
) -> tuple[np.ndarray, float]:
    """Full-batch (sub)gradient descent; returns the best iterate."""
    w = np.asarray(w0, dtype=float)
    best_w, best_f = w.copy(), problem.objective(w)
    for _ in range(T):
        w = w - eta * problem.full_gradient(w)
        f = problem.objective(w)
        if f < best_f:
            best_w, best_f = w.copy(), f
    return best_w, best_f


def reference_minimum(
    problem: Problem,
    w0: np.ndarray,
    etas: list[float],
    T: int,
) -> tuple[np.ndarray, float]:
    """Non-private baseline: the best :func:`subgradient_descent` iterate
    over a step-size grid, run in this process; the first strictly lowest
    value, in the order of ``etas``, wins. No command runs it."""
    if not etas:
        raise ValueError("etas must be nonempty")
    best_w, best_f = None, math.inf
    for eta in etas:
        w, f = subgradient_descent(problem, w0, eta, T)
        if f < best_f:
            best_w, best_f = w, f
    return best_w, best_f
