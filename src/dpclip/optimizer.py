"""DP-SGD engine with Poisson subsampling, per-sample clipping, Gaussian
noising and random-iterate output, plus closed-form hyperparameter schedules
for the interpolation, heavy-tailed convex (constrained, unconstrained,
sharp) and smooth nonconvex regimes."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .clipping import clip_rows
from .domains import UNCONSTRAINED
from .losses import Problem
from .privacy import NoiseSpec, PrivacyRegimeWarning, gaussian_noise


@dataclass
class DpSgdConfig:
    """Inputs of one DP-SGD run.

    ``b`` is the expected batch size of Poisson subsampling and is always the
    divisor of the summed clipped gradients, even when the realized batch is
    smaller or empty. ``sigma_sq`` is the per-coordinate noise variance
    (typically from :func:`dpclip.privacy.noise_variance`).
    """

    T: int
    eta: float
    tau: float
    b: float
    sigma_sq: float
    w0: np.ndarray
    seed: int = 0
    domain: object = field(default_factory=lambda: UNCONSTRAINED)

    def __post_init__(self):
        self.w0 = np.asarray(self.w0, dtype=float)
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.eta < 0:
            # eta = 0 is allowed as a degenerate no-op step
            raise ValueError("eta must be nonnegative")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if not self.b > 0:
            raise ValueError("expected batch size must be positive")
        if self.sigma_sq < 0:
            raise ValueError("sigma_sq must be nonnegative")


@dataclass
class RunResult:
    """Output of one DP-SGD run: the uniformly random iterate and bookkeeping."""

    w_priv: np.ndarray
    selected_t: int
    trajectory_stats: dict[str, np.ndarray] | None = None


def poisson_sample(n: int, b: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of a Poisson-subsampled batch: each i included w.p. b/n."""
    if not 0 < b <= n:
        raise ValueError(f"need 0 < b <= n, got b={b}, n={n}")
    return np.flatnonzero(rng.random(n) < b / n)


def dp_sgd_step(
    w: np.ndarray,
    problem: Problem,
    config: DpSgdConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """One update: sample, clip, average by the fixed b, noise, step, project.

    An empty Poisson batch contributes noise only. With sigma_sq = 0 no noise
    is drawn, so the step is bit-reproducible against plain (sub)gradient
    descent when clipping is inactive and b = n.
    """
    batch = poisson_sample(problem.n, config.b, rng)
    if batch.size:
        grads = problem.grads_at(w, batch)
        g = clip_rows(grads, config.tau).sum(axis=0) / config.b
    else:
        g = np.zeros(problem.dim)
    if config.sigma_sq > 0:
        g = g + gaussian_noise(NoiseSpec(config.sigma_sq, problem.dim), rng)
    return config.domain.project(w - config.eta * g)


def run_dp_sgd(problem: Problem, config: DpSgdConfig, record: bool = False) -> RunResult:
    """Run T steps from w0 and return the t̂-th iterate, t̂ uniform on {0..T-1}.

    Fully deterministic given the seed. The final iterate w_T is computed but
    never returned. ``record=True`` additionally stores f(w_t) and
    ||grad f(w_t)|| per iteration (one ``value_and_grad`` call each).
    """
    rng = np.random.default_rng(config.seed)
    t_hat = int(rng.integers(config.T))
    w = config.domain.project(config.w0)
    w_priv = w
    objectives: list[float] = []
    grad_norms: list[float] = []
    for t in range(config.T):
        if record:
            f, g = problem.value_and_grad(w)
            objectives.append(f)
            grad_norms.append(float(np.linalg.norm(g)))
        if t == t_hat:
            w_priv = w.copy()
        w = dp_sgd_step(w, problem, config, rng)
    stats = None
    if record:
        stats = {"objective": np.array(objectives), "grad_norm": np.array(grad_norms)}
    return RunResult(w_priv=w_priv, selected_t=t_hat, trajectory_stats=stats)


# ---------------------------------------------------------------------------
# Hyperparameter schedules
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


def schedule_interpolation(C: float, phi: float, tau: float) -> tuple[int, float]:
    """Interpolation-regime schedule: T = ceil(1/(3 phi^2)), eta = 3 C phi / (2 tau)."""
    _check_phi(phi)
    if not (C > 0 and tau > 0):
        raise ValueError("C and tau must be positive")
    T = math.ceil(1.0 / (3.0 * phi * phi))
    eta = 3.0 * C * phi / (2.0 * tau)
    return T, eta


def schedule_constrained_convex(
    G: float, gamma: float, D_W: float, T: int, phi: float, k: float
) -> tuple[float, float]:
    """Heavy-tailed constrained convex schedule over a diameter-D_W set.

    tau = (G / gamma^{1/k}) (1/T + phi^2)^{-1/(2k)},
    eta = (D_W / (T tau)) (1/T + phi^2)^{-1/2}.
    """
    _check_phi(phi)
    _check_gamma(gamma)
    if not (G > 0 and D_W > 0 and T >= 1 and k > 1):
        raise ValueError("need G > 0, D_W > 0, T >= 1, k > 1")
    base = 1.0 / T + phi * phi
    tau = (G / gamma ** (1.0 / k)) * base ** (-1.0 / (2.0 * k))
    eta = (D_W / (T * tau)) * base**-0.5
    return tau, eta


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
    eta = (C / (T * tau)) * base**-0.5
    return tau, eta


def schedule_sharp_convex(
    G: float, C: float, T: int, phi: float, k: float
) -> tuple[float, float]:
    """Improved unconstrained convex schedule under sharp growth; needs T >= 1/phi^2.

    tau = G (1/T + phi^2)^{-1/(2k)}, eta = (C / (T tau)) (1/T + phi^2)^{-1/2}.
    """
    _check_phi(phi)
    if not (G > 0 and C > 0 and k > 1):
        raise ValueError("need G > 0, C > 0, k > 1")
    t_min = math.ceil(1.0 / (phi * phi))
    if T < t_min:
        raise ValueError(f"T must be at least ceil(1/phi^2) = {t_min}, got {T}")
    base = 1.0 / T + phi * phi
    tau = G * base ** (-1.0 / (2.0 * k))
    eta = (C / (T * tau)) * base**-0.5
    return tau, eta


def schedule_nonconvex(
    G: float, gamma: float, C: float, L: float, T: int, phi: float, k: float
) -> tuple[float, float]:
    """Heavy-tailed smooth nonconvex schedule.

    tau = G (G / (gamma^2 C sqrt(L)))^{1/(2k-1)} (1/T + phi^2)^{-1/(2(2k-1))},
    eta = (C / (T tau sqrt(L))) (1/T + phi^2)^{-1/2}.
    """
    _check_phi(phi)
    _check_gamma(gamma)
    if not (G > 0 and C > 0 and L > 0 and T >= 1 and k > 1):
        raise ValueError("need G > 0, C > 0, L > 0, T >= 1, k > 1")
    base = 1.0 / T + phi * phi
    root_l = math.sqrt(L)
    tau = (
        G
        * (G / (gamma * gamma * C * root_l)) ** (1.0 / (2.0 * k - 1.0))
        * base ** (-1.0 / (2.0 * (2.0 * k - 1.0)))
    )
    eta = (C / (T * tau * root_l)) * base**-0.5
    return tau, eta


# ---------------------------------------------------------------------------
# Risk metrics and the non-private reference oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexRisk:
    """Risk = mean suboptimality f(w_priv) - f_star over runs."""

    f_star: float


@dataclass(frozen=True)
class NonconvexRisk:
    """Risk = mean squared full-gradient norm at w_priv over runs."""


def optimization_risk(
    problem: Problem,
    results: list[RunResult],
    kind: ConvexRisk | NonconvexRisk,
) -> float:
    if not results:
        raise ValueError("results must be nonempty")
    if isinstance(kind, ConvexRisk):
        values = [problem.objective(r.w_priv) - kind.f_star for r in results]
    elif isinstance(kind, NonconvexRisk):
        values = [
            float(np.linalg.norm(problem.full_gradient(r.w_priv))) ** 2 for r in results
        ]
    else:
        raise TypeError(f"unknown risk kind: {kind!r}")
    return float(np.mean(values))


def subgradient_descent(
    problem: Problem,
    w0: np.ndarray,
    eta: float,
    T: int,
) -> tuple[np.ndarray, float]:
    """Full-batch projected (sub)gradient descent; returns the best iterate."""
    w = problem.domain.project(np.asarray(w0, dtype=float))
    f, g = problem.value_and_grad(w)
    best_w, best_f = w.copy(), f
    for _ in range(T):
        w = problem.domain.project(w - eta * g)
        f, g = problem.value_and_grad(w)
        if f < best_f:
            best_w, best_f = w.copy(), f
    return best_w, best_f


def reference_minimum(
    problem: Problem,
    w0: np.ndarray,
    etas: list[float],
    T: int,
) -> tuple[np.ndarray, float]:
    """Non-private baseline: best iterate over a step-size grid.

    Used to estimate f* (and a minimizer) for risk reporting; run it with a
    generous iteration budget relative to the private runs it calibrates.
    """
    if not etas:
        raise ValueError("etas must be nonempty")
    best_w, best_f = None, math.inf
    for eta in etas:
        w, f = subgradient_descent(problem, w0, eta, T)
        if f < best_f:
            best_w, best_f = w, f
    return best_w, best_f
