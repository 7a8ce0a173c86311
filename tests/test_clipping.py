"""Tests for the clip operator and the clipping-bias oracle chain."""

import numpy as np
import pytest

from dpclip.clipping import (
    DiscreteVectorDistribution,
    bias_bound_corollary,
    bias_bound_lemma,
    clip,
    clip_rows,
    clipping_bias_exact,
)

TWO_ATOM = DiscreteVectorDistribution.from_atoms(
    [(np.array([0.0]), 0.5), (np.array([10.0]), 0.5)]
)


def test_clip_exact_cases():
    assert np.allclose(clip(np.array([3.0, 4.0]), 1.0), [0.6, 0.8], atol=1e-15)
    z = np.array([1.0, 0.0])
    assert np.array_equal(clip(z, 2.0), z)  # no-op below the threshold
    assert np.array_equal(clip(np.zeros(3), 1.0), np.zeros(3))


def test_clip_rejects_nonpositive_threshold():
    for c in (0.0, -1.0):
        with pytest.raises(ValueError):
            clip(np.ones(2), c)
        with pytest.raises(ValueError):
            clip_rows(np.ones((2, 2)), c)


def test_clip_norm_and_homogeneity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        z = rng.normal(0, 3, size=rng.integers(1, 6))
        c = float(rng.uniform(0.01, 5.0))
        lam = float(rng.uniform(0.01, 10.0))
        out = clip(z, c)
        assert np.linalg.norm(out) == pytest.approx(
            min(np.linalg.norm(z), c), rel=1e-12
        )
        scaled = clip(lam * z, lam * c)
        assert np.allclose(scaled, lam * out, rtol=1e-12, atol=1e-14)


def test_clip_rows_matches_clip_bitwise():
    rng = np.random.default_rng(6)
    rows = rng.normal(0, 2, size=(40, 5))
    rows[7] = 0.0  # zero row is clipped to zero, not NaN
    rows[3] *= 1e-3  # well under the threshold: untouched
    out = clip_rows(rows, 1.5)
    for i in range(rows.shape[0]):
        assert np.array_equal(out[i], clip(rows[i], 1.5))


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteVectorDistribution(np.ones((2, 1)), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        DiscreteVectorDistribution(np.ones((2, 1)), np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        DiscreteVectorDistribution(np.ones((2, 1)), np.array([0.5]))


def test_bias_exact_two_atoms():
    # mean 5, clipped mean 0.5
    assert clipping_bias_exact(TWO_ATOM, 1.0) == pytest.approx(4.5, abs=1e-12)


def test_bias_exact_identity_above_support():
    assert clipping_bias_exact(TWO_ATOM, 10.0) == 0.0
    assert clipping_bias_exact(TWO_ATOM, 25.0) == 0.0


def test_bias_exact_single_atom_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(50):
        v = rng.normal(0, 2, size=3)
        tau = float(rng.uniform(0.05, 6.0))
        dist = DiscreteVectorDistribution.from_atoms([(v, 1.0)])
        norm = np.linalg.norm(v)
        expected = norm * max(0.0, 1.0 - tau / norm)
        assert clipping_bias_exact(dist, tau) == pytest.approx(expected, abs=1e-12)


def test_lemma_bound_two_atoms_tight():
    # sqrt(50) * sqrt(0.5) - 0.5 = 4.5; the tail norm is constant so the
    # moment/tail inequality is tight here
    assert bias_bound_lemma(TWO_ATOM, 1.0, 2.0) == pytest.approx(4.5, abs=1e-12)
    assert bias_bound_lemma(TWO_ATOM, 11.0, 2.0) == 0.0


def test_lemma_bound_across_p_on_single_norm_tail():
    # with all tail mass at one norm the bound collapses to
    # P(tail) * (norm - tau) for every p, so the values coincide
    values = [bias_bound_lemma(TWO_ATOM, 1.0, p) for p in (1.5, 2.0, 4.0)]
    for v in values:
        assert v == pytest.approx(4.5, rel=1e-12)


def test_lemma_bound_large_p_reaches_ess_sup_term():
    rng = np.random.default_rng(9)
    for _ in range(20):
        vectors = rng.normal(0, 2, size=(4, 2))
        probs = rng.random(4) + 0.1
        probs /= probs.sum()
        dist = DiscreteVectorDistribution(vectors, probs)
        norms = dist.norms()
        tau = float(rng.uniform(0.1, 0.9) * norms.max())
        tail = float(probs @ (norms >= tau))
        limit = tail * (norms.max() - tau)
        assert bias_bound_lemma(dist, tau, 2000.0) == pytest.approx(limit, rel=0.02)


def test_corollary_bound_cases():
    assert bias_bound_corollary(TWO_ATOM, 1.0, 2.0) == pytest.approx(50.0, rel=1e-12)
    assert bias_bound_corollary(TWO_ATOM, 1e9, 2.0) == pytest.approx(0.0, abs=1e-6)
    zeros = DiscreteVectorDistribution.from_atoms(
        [(np.zeros(2), 0.25), (np.zeros(2), 0.75)]
    )
    assert bias_bound_corollary(zeros, 0.5, 3.0) == 0.0


def test_bound_chain_on_random_distributions():
    rng = np.random.default_rng(10)
    for _ in range(60):
        m = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        vectors = rng.normal(0, np.exp(rng.uniform(-1, 2)), size=(m, d))
        probs = rng.random(m) + 0.05
        probs /= probs.sum()
        dist = DiscreteVectorDistribution(vectors, probs)
        max_norm = dist.norms().max()
        for frac in (0.1, 0.4, 0.8, 1.05):
            tau = max(frac * max_norm, 1e-9)
            for p in (1.5, 2.0, 3.0):
                exact = clipping_bias_exact(dist, tau)
                lemma = bias_bound_lemma(dist, tau, p)
                corollary = bias_bound_corollary(dist, tau, p)
                assert lemma - exact >= -1e-9
                assert corollary - lemma >= -1e-9


def test_bias_nonincreasing_in_tau_on_aligned_atoms():
    # monotonicity in tau holds when all atoms share an orthant (each bias
    # component then shrinks with tau); with opposing atoms the residual can
    # cancel at small tau, so the aligned case is the meaningful property
    rng = np.random.default_rng(12)
    for _ in range(30):
        m = int(rng.integers(2, 6))
        vectors = np.abs(rng.normal(0, 2, size=(m, 3)))
        probs = rng.random(m) + 0.05
        probs /= probs.sum()
        dist = DiscreteVectorDistribution(vectors, probs)
        taus = np.linspace(0.05, 1.2 * dist.norms().max(), 15)
        biases = [clipping_bias_exact(dist, t) for t in taus]
        assert all(b1 >= b2 - 1e-12 for b1, b2 in zip(biases, biases[1:]))
