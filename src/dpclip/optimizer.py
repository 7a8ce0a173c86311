"""DP-SGD engine with Poisson subsampling, per-sample clipping, Gaussian
noising and random-iterate output, plus closed-form hyperparameter schedules
for the interpolation, heavy-tailed convex (constrained, unconstrained,
sharp) and smooth nonconvex regimes."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .clipping import clip_rows
from .losses import Problem
from .privacy import NoiseSpec, PrivacyRegimeWarning, gaussian_noise


@dataclass
class DpSgdConfig:
    """Inputs of one DP-SGD run.

    ``b`` is the expected batch size of Poisson subsampling and is always the
    divisor of the summed clipped gradients, even when the realized batch is
    smaller or empty. ``sigma_sq`` is the per-coordinate noise variance
    (typically from :func:`dpclip.privacy.noise_variance`). Iterates are
    projected onto the domain of the :class:`Problem` being solved.
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
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if not self.eta >= 0:
            # eta = 0 is allowed as a degenerate no-op step
            raise ValueError("eta must be nonnegative")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if not self.b > 0:
            raise ValueError("expected batch size must be positive")
        if not self.sigma_sq >= 0:
            raise ValueError("sigma_sq must be nonnegative")


def _check_batch(n: int, b: float) -> None:
    if not 0 < b <= n:
        raise ValueError(f"need 0 < b <= n, got b={b}, n={n}")


def poisson_sample(n: int, b: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of a Poisson-subsampled batch: each i included w.p. b/n."""
    _check_batch(n, b)
    return np.flatnonzero(rng.random(n) < b / n)


def dp_sgd_step(
    w: np.ndarray,
    problem: Problem,
    config: DpSgdConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """One update: sample, clip, average by the fixed b, noise, step, project.

    An empty Poisson batch has ``(0, dim)`` gradients whose clipped sum is the
    zero vector, so it contributes noise only. With sigma_sq = 0 no noise is
    drawn, so the step is bit-reproducible against plain (sub)gradient descent
    when clipping is inactive and b = n.
    """
    batch = poisson_sample(problem.n, config.b, rng)
    g = clip_rows(problem.grads_at(w, batch), config.tau).sum(axis=0) / config.b
    if config.sigma_sq > 0:
        g = g + gaussian_noise(NoiseSpec(config.sigma_sq, problem.dim), rng)
    return problem.domain.project(w - config.eta * g)


def run_dp_sgd(problem: Problem, config: DpSgdConfig) -> np.ndarray:
    """Return the t̂-th iterate of T steps from w0, t̂ uniform on {0..T-1}.

    t̂ is drawn first, so the run stops after t̂ steps: no later step can
    change the output, and the noise is still calibrated for all T. Fully
    deterministic given the seed; the result is never ``config.w0`` itself.
    The checks a step would make run first, so they hold even when t̂ = 0.
    """
    if config.w0.shape != (problem.dim,):
        raise ValueError(f"w0 must have shape ({problem.dim},), got {config.w0.shape}")
    _check_batch(problem.n, config.b)
    rng = np.random.default_rng(config.seed)
    t_hat = int(rng.integers(config.T))
    w = problem.domain.project(config.w0.copy())
    for _ in range(t_hat):
        w = dp_sgd_step(w, problem, config, rng)
    return w


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
# The non-private reference oracle
# ---------------------------------------------------------------------------


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
