"""Tests for Lipschitz profiles, percentiles and the clipped suboptimality
ratio estimator."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dpclip.lipschitz import (
    LipschitzProfile,
    alpha_estimate,
    build_profile,
    percentile,
)
from dpclip.losses import (
    Problem,
    geometric_median_problem,
    logistic_problem,
    planted_logistic_dataset,
)


def _scaled_two_sample_problem():
    """1-D instance f_1(w) = |w + 1| (G=1), f_2(w) = 2|w - 1| (G=2)."""
    anchors = np.array([-1.0, 1.0])
    scales = np.array([1.0, 2.0])

    def loss(w, i):
        return float(scales[i] * abs(w[0] - anchors[i]))

    def grad(w, i):
        return np.array([scales[i] * np.sign(w[0] - anchors[i])])

    return Problem(
        n=2,
        dim=1,
        loss=loss,
        grad=grad,
        lipschitz=scales.copy(),
        per_sample_min=np.zeros(2),
    )


def test_build_profile_sorts():
    prob = geometric_median_problem(np.zeros((3, 2)))
    prob.lipschitz = np.array([3.0, 1.0, 2.0])
    profile = build_profile(prob)
    assert np.array_equal(profile.g, [1.0, 2.0, 3.0])
    assert profile.minimum == 1.0 and profile.maximum == 3.0


def test_build_profile_single_and_errors():
    prob = geometric_median_problem(np.zeros((1, 2)))
    profile = build_profile(prob)
    assert profile.minimum == profile.maximum == 1.0
    prob.lipschitz = np.array([0.0])
    with pytest.raises(ValueError):
        build_profile(prob)


def test_build_profile_rejects_non_finite_constants():
    prob = geometric_median_problem(np.zeros((3, 2)))
    for bad in (np.inf, np.nan):
        prob.lipschitz = np.array([1.0, bad, 2.0])
        with pytest.raises(ValueError, match="must be finite and positive"):
            build_profile(prob)


def test_profile_matches_feature_norms():
    rng = np.random.default_rng(31)
    ds = planted_logistic_dataset(50, 4, 3, rng, 0.5, 3.0).with_bias()
    prob = logistic_problem(ds, 3)
    profile = build_profile(prob)
    recomputed = np.sort(math.sqrt(2.0) * np.linalg.norm(ds.features, axis=1))
    assert np.allclose(profile.g, recomputed, rtol=1e-12)


def test_percentile_nearest_rank():
    profile = LipschitzProfile(g=np.array([1.0, 2.0, 3.0, 4.0]))
    assert percentile(profile, 0) == 1.0
    assert percentile(profile, 100) == 4.0
    assert percentile(profile, 50) == 2.0  # ceil(0.5 * 4) = 2nd order statistic
    assert percentile(profile, 10) == 1.0
    assert percentile(profile, 75) == 3.0
    with pytest.raises(ValueError):
        percentile(profile, -1)
    with pytest.raises(ValueError):
        percentile(profile, 100.5)


def test_percentile_monotone_and_no_rank_drift():
    rng = np.random.default_rng(32)
    profile = LipschitzProfile(g=np.sort(rng.uniform(0.1, 5.0, size=2000)))
    values = [percentile(profile, q) for q in np.linspace(0, 100, 101)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    # q*n/100 landing on an exact integer must not creep to the next rank
    assert percentile(profile, 10) == profile.g[199]
    # ranks by exact decimal arithmetic: 16.1 * 1000 / 100 is 161.00000000000003
    # in binary, and 99.9 * 41000 / 100 is 40959.00000000001
    for n in (1, 7, 999, 1000, 2000, 8000, 41000, 82000, 83000, 100000, 164500):
        ranks = LipschitzProfile(g=np.arange(1.0, n + 1))
        for tenths in range(1001):
            exact = max(1, math.ceil(Fraction(tenths, 10) * n / 100))
            assert percentile(ranks, tenths / 10) == exact, (tenths / 10, n)


def _ball_samples(rng, dim, count, radius=3.0):
    w = rng.normal(size=(count, dim))
    w *= (radius * rng.random(count) ** (1.0 / dim) / np.linalg.norm(w, axis=1))[:, None]
    return list(w)


def test_alpha_is_exactly_one_at_g_max():
    prob = _scaled_two_sample_problem()
    profile = build_profile(prob)
    samples = _ball_samples(np.random.default_rng(34), 1, 40)
    assert alpha_estimate(prob, profile, profile.maximum, samples) == 1.0


def test_alpha_constant_below_g_min():
    prob = _scaled_two_sample_problem()
    profile = build_profile(prob)
    samples = _ball_samples(np.random.default_rng(35), 1, 40)
    low = alpha_estimate(prob, profile, profile.minimum / 2.0, samples)
    at_min = alpha_estimate(prob, profile, profile.minimum, samples)
    assert low == at_min


def test_alpha_nonincreasing_in_tau():
    prob = _scaled_two_sample_problem()
    profile = build_profile(prob)
    samples = _ball_samples(np.random.default_rng(36), 1, 60)
    taus = np.linspace(0.2, profile.maximum, 10)
    values = [alpha_estimate(prob, profile, t, samples) for t in taus]
    assert all(v >= 1.0 - 1e-9 for v in values)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    # G_n / (tau * alpha(tau)) is >= 1 and nonincreasing as well
    ratios = [profile.maximum / (t * v) for t, v in zip(taus, values)]
    assert all(r >= 1.0 - 1e-9 for r in ratios)
    assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_alpha_errors():
    prob = _scaled_two_sample_problem()
    profile = build_profile(prob)
    samples = _ball_samples(np.random.default_rng(37), 1, 10)
    with pytest.raises(ValueError):
        alpha_estimate(prob, profile, 0.0, samples)
    with pytest.raises(ValueError):
        alpha_estimate(prob, profile, profile.maximum * 1.01, samples)
    with pytest.raises(ValueError):
        alpha_estimate(prob, profile, 1.0, [])
    interpolating = geometric_median_problem(np.zeros((2, 1)))
    flat_profile = build_profile(interpolating)
    with pytest.raises(ValueError):
        # the anchor is the common minimizer of every sample: degenerate
        alpha_estimate(interpolating, flat_profile, 1.0, [np.zeros(1)])
