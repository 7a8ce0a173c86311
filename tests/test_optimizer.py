"""Tests for the DP-SGD engine, the schedule and the reference oracle."""

import math

import numpy as np
import pytest

from dpclip.clipping import clip_rows
from dpclip.losses import (
    geometric_median_problem,
    hard_instance_problem,
    logistic_problem,
    planted_logistic_dataset,
)
from dpclip.optimizer import (
    DpSgdConfig,
    dp_sgd_step,
    poisson_sample,
    reference_minimum,
    run_dp_sgd,
    schedule_unconstrained_convex,
    subgradient_descent,
)
from dpclip.privacy import (
    NoiseSpec,
    PrivacyBudget,
    PrivacyRegimeWarning,
    gaussian_noise,
    noise_variance,
)


def _config(**kw):
    base = dict(T=10, eta=0.1, tau=1.0, b=2.0, sigma_sq=0.0, w0=np.zeros(2), seed=0)
    base.update(kw)
    return DpSgdConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(T=0)
    with pytest.raises(ValueError):
        _config(eta=-0.1)
    with pytest.raises(ValueError):
        _config(tau=0.0)
    with pytest.raises(ValueError):
        _config(b=0.0)
    with pytest.raises(ValueError):
        _config(sigma_sq=-1.0)
    for field in ("eta", "sigma_sq"):
        with pytest.raises(ValueError, match=f"{field} must be nonnegative"):
            _config(**{field: math.nan})
    # T and seed fix a run's stream, so they must be exact integers up front
    with pytest.raises(ValueError, match=r"T must be an integer >= 1, got 2\.5"):
        _config(T=2.5)
    for seed in (None, -1, 1.5):
        with pytest.raises(ValueError, match=f"seed must be a nonnegative integer, got {seed}"):
            _config(seed=seed)
    config = _config(T=np.int64(3), seed=np.uint32(4))
    assert (config.T, config.seed) == (3, 4)


def test_poisson_sample_edges():
    rng = np.random.default_rng(0)
    assert np.array_equal(poisson_sample(5, 5.0, rng), np.arange(5))
    assert np.array_equal(poisson_sample(1, 1.0, rng), [0])
    with pytest.raises(ValueError):
        poisson_sample(5, 6.0, rng)
    with pytest.raises(ValueError):
        poisson_sample(5, 0.0, rng)


def test_poisson_sample_mean_batch():
    rng = np.random.default_rng(1)
    n, b = 1000, 50.0
    sizes = [poisson_sample(n, b, rng).size for _ in range(10_000)]
    tol = 3.0 * math.sqrt(b * (1 - b / n)) / 100.0
    assert abs(np.mean(sizes) - b) <= tol


def test_step_hand_case():
    # single anchor at 1, subgradient at w=0 is -1, so w' = 0 + 0.5
    prob = geometric_median_problem(np.array([[1.0]]))
    config = DpSgdConfig(T=1, eta=0.5, tau=1.0, b=1.0, sigma_sq=0.0, w0=np.zeros(1))
    w_next = dp_sgd_step(np.zeros(1), prob, config, np.random.default_rng(0))
    assert w_next[0] == pytest.approx(0.5, abs=1e-15)


def test_step_zero_eta_is_noop():
    prob = geometric_median_problem(np.array([[1.0], [3.0]]))
    config = DpSgdConfig(T=1, eta=0.0, tau=1.0, b=2.0, sigma_sq=0.5, w0=np.zeros(1))
    w = np.array([0.7])
    w_next = dp_sgd_step(w, prob, config, np.random.default_rng(3))
    assert np.array_equal(w_next, w)


@pytest.mark.parametrize("family", ["geometric-median", "logistic"])
def test_step_on_empty_batch_adds_noise_only(family):
    # b is tiny against n, so the Poisson batch is empty: the clipped sum of
    # the (0, dim) gradients is zero and only the noise moves w
    rng = np.random.default_rng(12)
    if family == "logistic":
        ds = planted_logistic_dataset(40, 3, 3, rng, 0.5, 2.0).with_bias()
        prob = logistic_problem(ds, 3)
    else:
        prob = geometric_median_problem(rng.normal(size=(40, 3)))
    w = rng.normal(size=prob.dim)
    for sigma_sq in (0.0, 0.3):
        config = DpSgdConfig(
            T=1, eta=0.7, tau=1.0, b=1e-9, sigma_sq=sigma_sq, w0=np.zeros(prob.dim)
        )
        step_rng = np.random.default_rng(5)
        w_next = dp_sgd_step(w, prob, config, step_rng)
        replay = np.random.default_rng(5)
        assert poisson_sample(prob.n, config.b, replay).size == 0
        if sigma_sq == 0.0:
            assert np.array_equal(w_next, w)
        else:
            noise = gaussian_noise(NoiseSpec(sigma_sq, prob.dim), replay)
            assert np.array_equal(w_next, w - config.eta * noise)
        # the step drew exactly what the replay drew
        assert step_rng.bit_generator.state == replay.bit_generator.state


def test_run_t1_returns_w0_and_is_deterministic():
    prob = geometric_median_problem(np.array([[1.0, 0.0]]))
    w0 = np.array([0.25, -0.5])
    config = DpSgdConfig(T=1, eta=0.3, tau=1.0, b=1.0, sigma_sq=0.4, w0=w0, seed=7)
    w = run_dp_sgd(prob, config)
    assert np.array_equal(w, w0)
    assert w is not config.w0

    config = DpSgdConfig(T=25, eta=0.3, tau=1.0, b=1.0, sigma_sq=0.4, w0=w0, seed=7)
    assert np.array_equal(run_dp_sgd(prob, config), run_dp_sgd(prob, config))


@pytest.mark.parametrize("family", ["logistic", "geometric-median"])
def test_run_returns_the_selected_iterate_of_the_full_run(family):
    # the run stops at t̂, yet returns bitwise the t̂-th iterate of all T steps
    rng = np.random.default_rng(21)
    if family == "logistic":
        ds = planted_logistic_dataset(40, 3, 3, rng, 0.5, 4.0).with_bias()
        prob = logistic_problem(ds, 3)
    else:
        prob = geometric_median_problem(rng.normal(0, 3, size=(6, 2)))
    w0 = rng.normal(size=prob.dim)
    for seed in range(8):
        config = DpSgdConfig(
            T=25, eta=0.3, tau=1.0, b=3.0, sigma_sq=0.4, w0=w0, seed=seed
        )
        step_rng = np.random.default_rng(seed)
        t_hat = int(step_rng.integers(config.T))
        iterates = [w0]
        for _ in range(config.T - 1):
            iterates.append(dp_sgd_step(iterates[-1], prob, config, step_rng))
        assert np.array_equal(run_dp_sgd(prob, config), iterates[t_hat])


def test_run_rejects_a_bad_config_even_when_no_step_runs():
    # at T = 1, t̂ = 0 and no step is taken, so these checks must come first
    prob = geometric_median_problem(np.array([[1.0, 0.0], [0.0, 1.0]]))
    config = DpSgdConfig(T=1, eta=0.3, tau=1.0, b=3.0, sigma_sq=0.4, w0=np.zeros(2))
    with pytest.raises(ValueError, match="need 0 < b <= n, got b=3.0, n=2"):
        run_dp_sgd(prob, config)
    for w0 in (np.zeros(3), np.zeros((2, 1))):
        config = DpSgdConfig(T=1, eta=0.3, tau=1.0, b=1.0, sigma_sq=0.4, w0=w0)
        with pytest.raises(ValueError, match=r"w0 must have shape \(2,\)"):
            run_dp_sgd(prob, config)


def _one_run(prob, config):
    # reference: one run alone, written out from the numpy draws it makes
    rng = np.random.default_rng(config.seed)
    t_hat = int(rng.integers(config.T))
    w = config.w0.copy()
    for _ in range(t_hat):
        batch = np.flatnonzero(rng.random(prob.n) < config.b / prob.n)
        g = clip_rows(prob.grads_at(w, batch), config.tau).sum(axis=0) / config.b
        if config.sigma_sq > 0:
            g = g + rng.normal(0.0, math.sqrt(config.sigma_sq), size=prob.dim)
        w = w - config.eta * g
    return w


@pytest.mark.parametrize("family", ["logistic", "geometric-median"])
def test_run_of_a_config_list_is_bitwise_each_run_alone(family):
    # configs that share a seed share their draws; each result must still be
    # exactly the run of its config alone, returned in input order
    rng = np.random.default_rng(41)
    if family == "logistic":
        ds = planted_logistic_dataset(50, 3, 3, rng, 0.5, 4.0).with_bias()
        prob = logistic_problem(ds, 3)
    else:
        prob = geometric_median_problem(rng.normal(0, 3, size=(30, 2)))
    w0s = [np.zeros(prob.dim), rng.normal(size=prob.dim)]
    runs = [(4, 30, 5.0), (9, 30, 5.0), (4, 17, 5.0), (4, 30, 11.0), (4, 30, 5.0)]
    cells = [(0.3, 1.0, 0.4, 0), (0.1, 0.5, 0.0, 1), (0.3, 2.0, 0.0, 0), (0.05, 0.5, 2.5, 1)]
    configs = [
        DpSgdConfig(T=T, eta=eta, tau=tau, b=b, sigma_sq=sigma_sq, w0=w0s[k], seed=seed)
        for seed, T, b in runs
        for eta, tau, sigma_sq, k in cells
    ]
    order = rng.permutation(len(configs))
    configs = [configs[i] for i in order]
    results = run_dp_sgd(prob, configs)
    assert len(results) == len(configs)
    moved = 0
    for w, config in zip(results, configs):
        alone = _one_run(prob, config)
        assert np.array_equal(w, alone)
        assert np.array_equal(run_dp_sgd(prob, config), alone)
        assert all(w is not c.w0 for c in configs)
        moved += not np.array_equal(w, config.w0)
    assert moved > len(configs) // 2


def test_run_of_a_config_list_checks_every_config_before_any_draw(monkeypatch):
    prob = geometric_median_problem(np.array([[1.0, 0.0], [0.0, 1.0]]))
    good = DpSgdConfig(T=5, eta=0.3, tau=1.0, b=1.0, sigma_sq=0.4, w0=np.zeros(2))
    bad_b = DpSgdConfig(T=5, eta=0.3, tau=1.0, b=3.0, sigma_sq=0.4, w0=np.zeros(2))
    bad_w0 = DpSgdConfig(T=5, eta=0.3, tau=1.0, b=1.0, sigma_sq=0.4, w0=np.zeros(3))

    def never(*args, **kwargs):
        raise AssertionError("a generator was opened before every config was checked")

    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", never)
        with pytest.raises(ValueError, match="need 0 < b <= n, got b=3.0, n=2"):
            run_dp_sgd(prob, [good, good, bad_b])
        with pytest.raises(ValueError, match=r"w0 must have shape \(2,\)"):
            run_dp_sgd(prob, [good, bad_w0])
        with pytest.raises(ValueError, match="at least one config"):
            run_dp_sgd(prob, [])

    # a step shares one batch and one noise draw, so its configs must agree
    other_b = DpSgdConfig(T=5, eta=0.3, tau=1.0, b=2.0, sigma_sq=0.4, w0=np.zeros(2))
    no_noise = DpSgdConfig(T=5, eta=0.3, tau=1.0, b=1.0, sigma_sq=0.0, w0=np.zeros(2))
    for mismatched in (other_b, no_noise):
        with pytest.raises(ValueError, match="must share b and whether sigma_sq > 0"):
            dp_sgd_step(
                [np.zeros(2), np.zeros(2)], prob, [good, mismatched],
                np.random.default_rng(0),
            )


def _two_call_subgradient_descent(problem, w0, eta, T):
    # reference: separate objective and full_gradient calls at each iterate
    w = np.asarray(w0, dtype=float)
    best_w, best_f = w.copy(), problem.objective(w)
    for _ in range(T):
        w = w - eta * problem.full_gradient(w)
        f = problem.objective(w)
        if f < best_f:
            best_w, best_f = w.copy(), f
    return best_w, best_f


def test_subgradient_descent_bitwise_matches_two_call_loop():
    rng = np.random.default_rng(13)
    ds = planted_logistic_dataset(300, 4, 3, rng, 0.4, 8.0)
    problems = [
        logistic_problem(ds.with_bias(), 3),
        logistic_problem(ds, 3),
        geometric_median_problem(rng.normal(size=(15, 3))),
        hard_instance_problem(rng.normal(size=(15, 4))),
    ]
    for prob in problems:
        w0 = 0.1 * rng.normal(size=prob.dim)
        for eta in (0.03, 1.0, 3.0):
            best_w, best_f = subgradient_descent(prob, w0, eta, 60)
            ref_w, ref_f = _two_call_subgradient_descent(prob, w0, eta, 60)
            assert best_f == ref_f
            assert np.array_equal(best_w, ref_w)


def test_noiseless_full_batch_matches_plain_gd_bitwise():
    rng = np.random.default_rng(6)
    for trial in range(5):
        if trial % 2 == 0:
            ds = planted_logistic_dataset(30, 3, 2, rng, 0.5, 2.0).with_bias()
            prob = logistic_problem(ds, 2)
        else:
            prob = geometric_median_problem(rng.normal(size=(10, 3)))
        eta = 0.2
        tau = float(prob.lipschitz.max()) + 1.0  # never clips
        config = DpSgdConfig(
            T=100, eta=eta, tau=tau, b=float(prob.n), sigma_sq=0.0,
            w0=np.zeros(prob.dim), seed=trial,
        )
        w_engine = np.zeros(prob.dim)
        w_plain = np.zeros(prob.dim)
        step_rng = np.random.default_rng(trial)
        for _ in range(config.T):
            w_engine = dp_sgd_step(w_engine, prob, config, step_rng)
            w_plain = w_plain - eta * (prob.grads_at(w_plain).sum(axis=0) / prob.n)
            assert np.array_equal(w_engine, w_plain)


def test_noiseless_convergence_with_min_lipschitz_clip():
    rng = np.random.default_rng(8)
    ds = planted_logistic_dataset(100, 5, 2, rng, 0.5, 2.0).with_bias()
    prob = logistic_problem(ds, 2)
    _, f_star = reference_minimum(prob, np.zeros(prob.dim), [1.0, 3.0, 10.0], 5000)
    tau = float(prob.lipschitz.min())
    config = DpSgdConfig(
        T=500, eta=3.0, tau=tau, b=float(prob.n), sigma_sq=0.0,
        w0=np.zeros(prob.dim), seed=0,
    )
    # the last iterate a run can return, w_{T-1}
    w = config.w0
    step_rng = np.random.default_rng(config.seed)
    step_rng.integers(config.T)  # the draw of the returned iterate
    for _ in range(config.T - 1):
        w = dp_sgd_step(w, prob, config, step_rng)
    assert prob.objective(w) < prob.objective(config.w0)
    assert prob.objective(w) - f_star < 0.05


def test_gradient_estimator_unbiased_when_clipping_inactive():
    # at b = n with clipping inactive only the noise is random: each step is
    # bitwise the full gradient plus sqrt(sigma_sq) times the standard normal
    # draw that follows the n Poisson uniforms, so the estimator is unbiased
    rng = np.random.default_rng(9)
    prob = geometric_median_problem(rng.normal(size=(5, 2)))
    w = np.array([0.3, 0.8])
    sigma_sq = 0.05
    config = DpSgdConfig(
        T=1, eta=1.0, tau=10.0, b=float(prob.n), sigma_sq=sigma_sq, w0=w
    )
    full = prob.full_gradient(w)
    for seed in range(200):
        replay = np.random.default_rng(seed)
        replay.random(prob.n)
        z = replay.normal(0.0, 1.0, size=prob.dim)
        expected = w - config.eta * (full + (0.0 + math.sqrt(sigma_sq) * z))
        step = dp_sgd_step(w, prob, config, np.random.default_rng(seed))
        assert np.array_equal(step, expected)


def test_second_moment_bound():
    rng = np.random.default_rng(12)
    prob = geometric_median_problem(rng.normal(0, 2, size=(20, 3)))
    n, T, tau = prob.n, 50, 0.8
    budget = PrivacyBudget(1.0, 1e-5)
    sigma_sq = noise_variance(T, tau, n, budget, dim=prob.dim).sigma_sq
    b = 4.0
    config = DpSgdConfig(
        T=1, eta=1.0, tau=tau, b=b, sigma_sq=sigma_sq, w0=np.zeros(prob.dim)
    )
    w = np.array([0.5, -0.2, 0.1])
    step_rng = np.random.default_rng(13)
    draws = 20_000
    second_moment = 0.0
    for _ in range(draws):
        g = (w - dp_sgd_step(w, prob, config, step_rng)) / config.eta
        second_moment += float(g @ g)
    second_moment /= draws
    bound = 2.0 * tau**2 * (
        1.0 + budget.nu * prob.dim * T * math.log(1.0 / budget.delta)
        / (n**2 * budget.epsilon**2)
    )
    assert second_moment <= bound * 1.02


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def test_schedule_unconstrained_convex_value_and_identity():
    with pytest.warns(PrivacyRegimeWarning):  # gamma = 1 sentinel
        tau, eta = schedule_unconstrained_convex(1.0, 1.0, 1.0, 100, 0.1, 2.0)
    assert tau == pytest.approx(0.02 ** (-1.0 / 3.0), rel=1e-12)
    assert tau == pytest.approx(3.684, rel=1e-3)
    base = 1.0 / 100 + 0.01
    assert eta * 100 * tau * math.sqrt(base) == pytest.approx(1.0, rel=1e-12)
    # phi >= 1 is outside the analysis: warned about, still computed
    with pytest.warns(PrivacyRegimeWarning, match="phi = 1.5 >= 1"):
        tau, eta = schedule_unconstrained_convex(1.0, 0.5, 1.0, 100, 1.5, 2.0)
    base = 1.0 / 100 + 1.5**2
    assert tau == pytest.approx(2.0**0.5 * base ** (-1.0 / 3.0), rel=1e-12)
    assert eta * 100 * tau * math.sqrt(base) == pytest.approx(1.0, rel=1e-12)


def test_schedule_domain_errors():
    with pytest.raises(ValueError, match="gamma must lie in"):
        schedule_unconstrained_convex(1.0, 1.5, 1.0, 10, 0.1, 2.0)
    with pytest.raises(ValueError, match="k > 1"):
        schedule_unconstrained_convex(1.0, 0.5, 1.0, 10, 0.1, 0.5)
    with pytest.raises(ValueError, match="C > 0"):
        schedule_unconstrained_convex(1.0, 0.5, -1.0, 10, 0.1, 2.0)
    for phi in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="phi must be positive"):
            schedule_unconstrained_convex(1.0, 0.5, 1.0, 10, phi, 2.0)
    # phi^2 overflows (epsilon ~ 1e-160), so tau would be 0 and eta = C / 0
    for phi in (1e160, math.inf):
        with pytest.warns(PrivacyRegimeWarning), pytest.raises(
            ValueError, match="clip norm is 0.0 .*epsilon too small"
        ):
            schedule_unconstrained_convex(1.0, 0.5, 1.0, 10, phi, 2.0)
