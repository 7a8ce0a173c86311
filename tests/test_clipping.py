"""Tests for the clip operator and the clipping-bias oracle chain."""

import math

import numpy as np
import pytest

from dpclip.clipping import (
    DiscreteVectorDistribution,
    bias_bound_corollary,
    bias_bound_lemma,
    clip,
    clip_rows,
    clipping_bias_exact,
    row_norms,
)

TWO_ATOM = DiscreteVectorDistribution.from_atoms(
    [(np.array([0.0]), 0.5), (np.array([10.0]), 0.5)]
)


def test_clip_rejects_nonpositive_threshold():
    for c in (0.0, -1.0):
        with pytest.raises(ValueError):
            clip(np.ones(2), c)
        with pytest.raises(ValueError):
            clip_rows(np.ones((2, 2)), c)
    # a per-row vector is rejected, with the same message, by its first bad entry
    for c, bad in (([1.0, 0.0, 2.0], "0.0"), ([1.0, 2.0, -3.0], "-3.0"),
                   ([np.nan, 1.0, 2.0], "nan")):
        with pytest.raises(ValueError, match=f"^clip threshold must be positive, got {bad}$"):
            clip_rows(np.ones((3, 2)), np.array(c))
    with pytest.raises(ValueError, match="one clip threshold per row"):
        clip_rows(np.ones((3, 2)), np.ones(2))


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

    # one threshold per row: each row is clipped at its own, and a row under
    # its threshold is returned as it was
    taus = rng.uniform(0.5, 4.0, size=rows.shape[0])
    taus[3] = 1e-4  # the small row 3 is over its own threshold
    out = clip_rows(rows, taus)
    norms = np.linalg.norm(rows, axis=1)
    assert np.any(norms > taus) and np.any(norms <= taus)
    for i in range(rows.shape[0]):
        assert np.array_equal(out[i], clip(rows[i], taus[i]))
        if norms[i] <= taus[i]:
            assert np.array_equal(out[i], rows[i])


def _mask_clip_rows(rows, thresholds):
    """The reference: the kernel's mask-and-assign 2-D form, which scales a
    row by 1.0, or by its threshold over its norm where the norm exceeds it."""
    norms = np.sqrt(np.sum(rows * rows, axis=1))
    scale = np.ones_like(norms)
    over = norms > thresholds
    scale[over] = thresholds[over] / norms[over]
    return rows * scale[:, None]


def _random_stack(rng):
    """A (K, B, dim) stack with zero, NaN and inf rows, and a (K, 1) column of
    thresholds: uniform, inf, or exactly the norm of the block's first row."""
    K, B, dim = int(rng.integers(1, 5)), int(rng.integers(0, 7)), int(rng.integers(1, 6))
    stack = rng.normal(0, 2, size=(K, B, dim)) * np.exp(rng.uniform(-3, 3, size=(K, B, 1)))
    for value in (np.nan, np.inf, -np.inf):
        stack[rng.random((K, B)) < 0.1, int(rng.integers(dim))] = value
    stack[rng.random((K, B)) < 0.1] = 0.0
    taus = rng.uniform(0.1, 5.0, size=(K, 1))
    for k in range(K):
        pick = rng.random()
        if pick < 0.2:
            taus[k] = np.inf
        elif pick < 0.6 and B:
            at = np.sqrt(np.sum(stack[k, 0] * stack[k, 0]))
            if np.isfinite(at) and at > 0:
                taus[k] = at  # the row sits exactly at its threshold
    return stack, taus


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")  # inf * 0
def test_clip_kernel_matches_mask_reference_bitwise():
    rng = np.random.default_rng(13)
    for _ in range(300):
        stack, taus = _random_stack(rng)
        K, B, dim = stack.shape
        flat = stack.reshape(K * B, dim)
        per_row = np.repeat(taus[:, 0], B)
        # (K, 1) column against the stack: the DP-SGD step's call
        want = _mask_clip_rows(flat, per_row)
        assert _same_bits(clip_rows(stack, taus), want.reshape(K, B, dim))
        # (N,) thresholds against the flat rows, and one scalar for all
        assert _same_bits(clip_rows(flat, per_row), want)
        tau = float(taus[0, 0])
        want_one = _mask_clip_rows(flat, np.full(K * B, tau))
        assert _same_bits(clip_rows(stack, tau), want_one.reshape(K, B, dim))
        # a single vector through clip
        for i in range(K * B):
            assert _same_bits(clip(flat[i], tau), want_one[i])


def test_row_norms_are_linalg_norm_bitwise_and_do_not_overflow():
    rng = np.random.default_rng(14)
    rows = rng.normal(0, 3, size=(30, 4))
    assert _same_bits(row_norms(rows), np.linalg.norm(rows, axis=1))
    assert _same_bits(row_norms(np.asfortranarray(rows)), np.linalg.norm(rows, axis=1))
    # an overflowing row takes the rescaled norm; every other keeps its bits
    rows[5] = [1e200, -1e200, 0.0, 1e199]
    norms = row_norms(rows)
    assert norms[5] == pytest.approx(math.sqrt(2.01) * 1e200, rel=1e-15)
    others = np.arange(30) != 5
    assert _same_bits(norms[others], np.linalg.norm(rows[others], axis=1))
    assert row_norms(np.array([1e200, 1e200])) == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)
    # past the float range, or with a non-finite entry, the norm is not finite
    odd = np.array([[1.7e308, 1.7e308], [np.inf, 1.0], [np.nan, 1e300]])
    assert _same_bits(row_norms(odd), np.array([np.inf, np.inf, np.nan]))


def test_clip_keeps_the_direction_of_an_overflowing_row():
    unit = math.sqrt(0.5)
    out = clip_rows(np.array([[1e200, 1e200], [3.0, 4.0]]), 1.0)
    assert np.allclose(out, [[unit, unit], [0.6, 0.8]], rtol=1e-15, atol=0)
    assert np.allclose(clip(np.array([1e200, -1e200]), 2.0), [2 * unit, -2 * unit],
                       rtol=1e-15, atol=0)


def test_bias_chain_with_an_overflowing_atom_norm():
    norm = math.sqrt(2) * 1e200
    dist = DiscreteVectorDistribution.from_atoms(
        [(np.zeros(2), 0.5), (np.array([1e200, 1e200]), 0.5)]
    )
    assert dist.norms()[1] == pytest.approx(norm, rel=1e-15)
    for tau in (1.0, 1e199, 1e200):
        exact = clipping_bias_exact(dist, tau)
        assert exact == pytest.approx(0.5 * (norm - tau), rel=1e-12)
        for p in (1.5, 2.0, 3.0):
            lemma = bias_bound_lemma(dist, tau, p)
            corollary = bias_bound_corollary(dist, tau, p)
            # the chain holds to rounding at this scale; the Markov bound may be inf
            assert math.isfinite(lemma) and lemma >= exact * (1 - 1e-12)
            assert corollary >= lemma * (1 - 1e-12)


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
    # all-zero atoms: no moment to factor out, and no mass at or above tau > 0
    zeros = DiscreteVectorDistribution.from_atoms([(np.zeros(2), 0.25), (np.zeros(2), 0.75)])
    assert bias_bound_lemma(zeros, 0.5, 2.0) == 0.0 == clipping_bias_exact(zeros, 0.5)


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
    # E||v||^p and tau^(p-1) leave the float range at these orders; the bound
    # is then inf or finite, never NaN, with no warning and no OverflowError
    # (a Python float tau included)
    assert bias_bound_corollary(TWO_ATOM, 1.0, 2000.0) == np.inf
    assert bias_bound_corollary(TWO_ATOM, 2.0, 2000.0) == np.inf
    for tau in (9.0, 11.0):
        expected = 0.5 * tau * np.exp(2000.0 * np.log(10.0 / tau))  # 0.5 * 10^2000 / tau^1999
        assert bias_bound_corollary(TWO_ATOM, tau, 2000.0) == pytest.approx(expected, rel=1e-10)
    # an atom of probability 0 is outside the support, however large its norm
    hidden = DiscreteVectorDistribution.from_atoms(
        [(np.array([1.0]), 0.5), (np.array([1e150]), 0.0), (np.array([2.0]), 0.5)]
    )
    assert bias_bound_corollary(hidden, 1.5, 2.0) == pytest.approx(2.5 / 1.5, rel=1e-12)
    assert bias_bound_corollary(hidden, 1.5, 5000.0) == np.inf
    assert bias_bound_corollary(hidden, 3.0, 5000.0) == 0.0


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
