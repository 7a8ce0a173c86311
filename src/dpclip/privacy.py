"""Noise calibration and private selection primitives.

Calibration follows the closed-form Gaussian noise variance of the moments
accountant for clipped-gradient SGD, parameterised by a configurable absolute
constant ``nu``. Private minimum selection over per-sample scores uses the
report-noisy-max mechanism with Laplace noise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


class PrivacyRegimeWarning(UserWarning):
    """Raised when parameters leave the regime the risk bounds assume."""


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) privacy budget plus the accountant constant nu.

    ``nu`` is the absolute constant in the noise-variance closed form; it has
    no prescribed numeric value and defaults to 1.
    """

    epsilon: float
    delta: float
    nu: float = 1.0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not self.nu > 0:
            raise ValueError(f"nu must be positive, got {self.nu}")


@dataclass(frozen=True)
class NoiseSpec:
    """Per-coordinate Gaussian variance and the ambient dimension."""

    sigma_sq: float
    dimension: int

    def __post_init__(self):
        if not self.sigma_sq >= 0:
            raise ValueError(f"sigma_sq must be nonnegative, got {self.sigma_sq}")
        if self.sigma_sq == math.inf:
            raise ValueError("sigma_sq must be finite, got inf")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")


def compute_phi(n: int, d: int, budget: PrivacyBudget) -> float:
    """Key privacy-utility quantity sqrt(nu * d * ln(1/delta)) / (n * epsilon).

    All risk bounds are expressed in terms of this quantity; the analysis
    assumes it is below 1, so a `PrivacyRegimeWarning` is emitted otherwise.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    phi = math.sqrt(budget.nu * d * math.log(1.0 / budget.delta)) / (n * budget.epsilon)
    if phi >= 1.0:
        warnings.warn(
            f"phi = {phi:.4g} >= 1; risk guarantees assume phi < 1 (n too small)",
            PrivacyRegimeWarning,
            stacklevel=2,
        )
    return phi


def noise_variance(
    T: int,
    tau: float,
    n: int,
    budget: PrivacyBudget,
    dim: int = 1,
    expected_batch: float | None = None,
) -> NoiseSpec:
    """Per-coordinate Gaussian variance nu * T * ln(1/delta) * tau^2 / (n eps)^2.

    ``expected_batch`` is optional; when given, a warning is emitted if
    epsilon >= T * (b/n)^2, since the closed form is only stated for epsilon
    below a constant multiple of that quantity (constant unknown, so this is
    never enforced). An epsilon so small that (n eps)^2 underflows to 0 or
    the variance overflows raises ``ValueError``.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if not tau >= 0:
        raise ValueError("tau must be nonnegative")
    if n < 1:
        raise ValueError("n must be >= 1")
    numerator = budget.nu * T * math.log(1.0 / budget.delta) * tau * tau
    denominator = n * n * budget.epsilon * budget.epsilon
    if denominator == 0:
        raise ValueError(
            f"epsilon = {budget.epsilon!r} is too small: (n * epsilon)^2 underflows to 0"
        )
    sigma_sq = numerator / denominator
    if not math.isfinite(sigma_sq):
        raise ValueError(
            f"noise variance is {sigma_sq!r} at epsilon = {budget.epsilon!r}, tau = {tau!r}"
        )
    if expected_batch is not None:
        ratio = expected_batch / n
        if budget.epsilon >= T * ratio * ratio:
            warnings.warn(
                "epsilon exceeds T*(b/n)^2; outside the stated accountant regime",
                PrivacyRegimeWarning,
                stacklevel=2,
            )
    return NoiseSpec(sigma_sq=sigma_sq, dimension=dim)


def gaussian_noise(spec: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw one isotropic Gaussian vector N(0, sigma_sq * I)."""
    if spec.sigma_sq == 0.0:
        return np.zeros(spec.dimension)
    return rng.normal(0.0, math.sqrt(spec.sigma_sq), size=spec.dimension)


def report_noisy_max(
    scores: np.ndarray,
    epsilon: float,
    sensitivity: float,
    rng: np.random.Generator,
) -> int:
    """Return the index of the max score after adding Laplace(2*sensitivity/eps) noise.

    ``sensitivity`` is the caller-supplied bound on how much a single sample
    can change one score (for unbounded quantities, clamp first and pass the
    clamp bound). ``epsilon = math.inf`` is the non-private sentinel and
    returns the exact argmax with first-occurrence tie-breaking.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("scores must be nonempty")
    if epsilon == math.inf:
        return int(np.argmax(scores))
    if not epsilon > 0:
        raise ValueError("epsilon must be positive or math.inf")
    if not 0 < sensitivity < math.inf:
        raise ValueError(f"sensitivity must be positive and finite, got {sensitivity!r}")
    noisy = scores + rng.laplace(0.0, 2.0 * sensitivity / epsilon, size=scores.size)
    return int(np.argmax(noisy))
