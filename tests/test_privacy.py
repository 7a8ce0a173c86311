"""Tests for noise calibration and the report-noisy-max mechanism."""

import math

import numpy as np
import pytest

from dpclip.privacy import (
    NoiseSpec,
    PrivacyBudget,
    PrivacyRegimeWarning,
    compute_phi,
    gaussian_noise,
    noise_variance,
    report_noisy_max,
)


@pytest.mark.parametrize(
    "epsilon,delta,nu",
    [(0.0, 1e-5, 1.0), (-1.0, 1e-5, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1e-5, 0.0)],
)
def test_budget_validation(epsilon, delta, nu):
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon, delta, nu)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(-1.0, 3)
    with pytest.raises(ValueError, match="sigma_sq must be nonnegative, got nan"):
        NoiseSpec(math.nan, 3)
    with pytest.raises(ValueError, match="sigma_sq must be finite, got inf"):
        NoiseSpec(math.inf, 3)
    with pytest.raises(ValueError):
        NoiseSpec(1.0, 0)


def test_phi_hand_value():
    budget = PrivacyBudget(2.0, 1e-5)
    expected = math.sqrt(10 * math.log(1e5)) / 2000.0
    assert compute_phi(1000, 10, budget) == pytest.approx(expected, rel=1e-12)
    assert compute_phi(1000, 10, budget) == pytest.approx(0.00536492, rel=1e-5)


def test_phi_halves_exactly_when_n_doubles():
    import warnings

    budget = PrivacyBudget(3.0, 1e-6, nu=2.0)
    with warnings.catch_warnings():
        # tiny n pushes phi above 1, which is fine for this exactness check
        warnings.simplefilter("ignore", PrivacyRegimeWarning)
        for n in (1, 7, 1000, 12345):
            assert compute_phi(2 * n, 9, budget) == compute_phi(n, 9, budget) / 2.0


def test_phi_unity_case_warns():
    budget = PrivacyBudget(1.0, math.exp(-1.0))
    with pytest.warns(PrivacyRegimeWarning):
        assert compute_phi(1, 1, budget) == pytest.approx(1.0, rel=1e-12)


def test_phi_monotonicity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 10_000))
        d = int(rng.integers(1, 500))
        eps = float(rng.uniform(0.1, 8.0))
        delta = float(rng.uniform(1e-8, 0.5))
        nu = float(rng.uniform(0.1, 4.0))
        base = compute_phi(n, d, PrivacyBudget(eps, delta, nu))
        assert compute_phi(n + 1, d, PrivacyBudget(eps, delta, nu)) < base
        assert compute_phi(n, d, PrivacyBudget(eps * 1.1, delta, nu)) < base
        assert compute_phi(n, d + 1, PrivacyBudget(eps, delta, nu)) > base
        assert compute_phi(n, d, PrivacyBudget(eps, delta, nu * 1.1)) > base


def test_noise_variance_hand_value():
    budget = PrivacyBudget(2.0, 1e-5)
    expected = 400 * math.log(1e5) * 4.0 / (1e6 * 4.0)
    spec = noise_variance(400, 2.0, 1000, budget)
    assert spec.sigma_sq == pytest.approx(expected, rel=1e-12)
    assert spec.sigma_sq == pytest.approx(4.60517e-3, rel=1e-5)


def test_noise_variance_tau_scaling():
    budget = PrivacyBudget(1.5, 1e-4)
    assert noise_variance(10, 0.0, 50, budget).sigma_sq == 0.0
    base = noise_variance(10, 1.25, 50, budget).sigma_sq
    assert noise_variance(10, 2.5, 50, budget).sigma_sq == 4.0 * base


def test_noise_variance_rejects_tiny_epsilon():
    # (n eps)^2 underflows to 0, or sigma^2 overflows, instead of a
    # ZeroDivisionError or an infinite variance reaching the runs
    with pytest.raises(ValueError, match="epsilon = 1e-300 is too small"):
        noise_variance(10, 1.0, 60, PrivacyBudget(1e-300, 1e-5))
    with pytest.raises(ValueError, match="noise variance is inf at epsilon = 1e-160"):
        noise_variance(10, 1.0, 60, PrivacyBudget(1e-160, 1e-5))
    # a tiny epsilon that still gives a finite variance keeps the formula's bits
    budget = PrivacyBudget(1e-150, 1e-5)
    assert noise_variance(10, 1.0, 60, budget).sigma_sq == (
        10 * math.log(1e5) * 1.0 * 1.0 / (60 * 60 * 1e-150 * 1e-150)
    )


def test_noise_variance_inverts_to_log_inv_delta():
    rng = np.random.default_rng(11)
    for _ in range(100):
        T = int(rng.integers(1, 5000))
        tau = float(rng.uniform(0.01, 50.0))
        n = int(rng.integers(1, 100_000))
        budget = PrivacyBudget(
            float(rng.uniform(0.1, 10.0)),
            float(rng.uniform(1e-9, 0.9)),
            float(rng.uniform(0.1, 5.0)),
        )
        sigma_sq = noise_variance(T, tau, n, budget).sigma_sq
        recovered = sigma_sq * n * n * budget.epsilon**2 / (T * tau * tau * budget.nu)
        assert recovered == pytest.approx(math.log(1.0 / budget.delta), rel=1e-13)


def test_regime_warning_on_large_epsilon():
    budget = PrivacyBudget(5.0, 1e-5)
    with pytest.warns(PrivacyRegimeWarning):
        noise_variance(10, 1.0, 100, budget, expected_batch=10.0)


def test_gaussian_noise_zero_variance_and_determinism():
    spec = NoiseSpec(0.0, 4)
    assert np.array_equal(gaussian_noise(spec, np.random.default_rng(0)), np.zeros(4))
    spec = NoiseSpec(2.0, 6)
    a = gaussian_noise(spec, np.random.default_rng(42))
    b = gaussian_noise(spec, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_gaussian_noise_moments():
    # coordinates are i.i.d., so one long draw provides the 1e5 samples
    sample = gaussian_noise(NoiseSpec(1.0, 100_000), np.random.default_rng(123))
    assert abs(sample.mean()) < 4.0 / math.sqrt(sample.size)
    assert abs(sample.var() - 1.0) < 0.05


def test_report_noisy_max_exact_argmax():
    rng = np.random.default_rng(0)
    assert report_noisy_max(np.array([-5.0, -1.0, -3.0]), math.inf, 1.0, rng) == 1
    assert report_noisy_max(np.array([2.0, 2.0, 1.0]), math.inf, 1.0, rng) == 0
    assert report_noisy_max(np.array([7.0]), 0.5, 1.0, rng) == 0


def test_report_noisy_max_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        report_noisy_max(np.array([]), 1.0, 1.0, rng)
    for epsilon in (-1.0, 0.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon must be positive or math.inf"):
            report_noisy_max(np.array([1.0]), epsilon, 1.0, rng)
    for sensitivity in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="sensitivity must be positive and finite"):
            report_noisy_max(np.array([1.0]), 1.0, sensitivity, rng)


def test_report_noisy_max_monotone_in_epsilon():
    scores = np.array([-1.0, -2.0])
    trials = 30_000
    rates = []
    for eps in (0.1, 1.0, 10.0):
        rng = np.random.default_rng(202)
        hits = sum(
            report_noisy_max(scores, eps, 1.0, rng) == 0 for _ in range(trials)
        )
        rates.append(hits / trials)
    assert rates[1] >= rates[0] - 0.01
    assert rates[2] >= rates[1] - 0.01
    assert rates[2] > rates[0] + 0.2  # genuinely more accurate at high epsilon


def test_report_noisy_max_shift_invariance():
    scores = np.array([0.3, -1.2, 0.9, 0.2])
    for trial in range(200):
        r1 = np.random.default_rng(trial)
        r2 = np.random.default_rng(trial)
        i = report_noisy_max(scores, 0.7, 1.0, r1)
        j = report_noisy_max(scores + 17.3, 0.7, 1.0, r2)
        assert i == j
