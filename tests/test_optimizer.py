"""Tests for the DP-SGD engine, the schedule and the reference oracle."""

import dataclasses
import math

import numpy as np
import pytest

from csv_compare import array_differences
from dpclip.clipping import clip_rows, row_norms
from dpclip.losses import (
    Dataset,
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
    with pytest.raises(ValueError, match="eta must be nonnegative and finite, got inf"):
        _config(eta=math.inf)
    # an infinite variance ran to a NaN iterate, and a NaN w0 ran silently
    with pytest.raises(ValueError, match="sigma_sq must be finite, got inf"):
        _config(sigma_sq=math.inf)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"w0 must be finite, got {bad} at index 1"):
            _config(w0=np.array([0.0, bad]))
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


def _gap_replay(n, b, rng):
    # the geometric-gap recipe one gap at a time: each index is the last
    # one plus a Geometric(b/n) gap, drawn from chunks of the sampler's size
    chunk = int(b + 4.0 * math.sqrt(b)) + 16
    out, last = [], -1
    while last < n:
        for gap in rng.geometric(b / n, size=chunk):
            last += min(int(gap), n + 1)
            if last < n:
                out.append(last)
    return np.array(out, dtype=np.int64)


def _bernoulli_replay(n, b, rng):
    return np.flatnonzero(rng.random(n) < b / n)


@pytest.mark.parametrize(
    "n, b, replay, pin",
    [
        (2000, 100.0, _bernoulli_replay, (2003, 2_047_476, [3, 40, 47, 53])),
        (100_000, 500.0, _gap_replay, (10_100, 502_508_183, [45, 153, 377, 387])),
    ],
    ids=["bernoulli-2000-100", "gaps-1e5-500"],
)
def test_poisson_sample_stream_pin(n, b, replay, pin):
    # c08's shape keeps the one-uniform-per-index stream; large-n's shape
    # draws geometric gaps. Both equal their recipe bit for bit, draws
    # included, and 20 batches at seed 11 keep their recorded rows, count
    # and index sum on every SIMD dispatch numpy makes
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    batches = [poisson_sample(n, b, rng) for _ in range(20)]
    for batch in batches:
        assert batch.dtype == np.int64 and np.array_equal(batch, replay(n, b, ref))
    assert rng.bit_generator.state == ref.bit_generator.state
    rows = np.concatenate(batches)
    assert (rows.size, int(rows.sum()), batches[0][:4].tolist()) == pin


@pytest.mark.parametrize(
    "b, n_gaps", [(100.0, 9984), (500.0, 38_720), (10.0, 2432)], ids=["b100", "b500", "b10"]
)
def test_poisson_sample_switches_to_gaps_at_64_chunks(b, n_gaps):
    # n_gaps = 64 * chunk: one row below it stays on the Bernoulli path
    assert n_gaps == 64 * (int(b + 4.0 * math.sqrt(b)) + 16)
    for n, replay in ((n_gaps - 1, _bernoulli_replay), (n_gaps, _gap_replay)):
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        assert np.array_equal(poisson_sample(n, b, rng), replay(n, b, ref))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_poisson_sample_gaps_have_the_bernoulli_distribution():
    # 5000 batches at n = 1e5, b = 500, on the gap path: each index is in a
    # batch independently with probability q
    n, b, draws = 100_000, 500.0, 5000
    q = b / n
    rng = np.random.default_rng(2024)
    batches = [poisson_sample(n, b, rng) for _ in range(draws)]
    for batch in batches:
        assert np.all(np.diff(batch) > 0)
        assert batch.size == 0 or (batch[0] >= 0 and batch[-1] < n)
    sizes = np.array([batch.size for batch in batches])
    var = b * (1 - q)
    assert abs(sizes.mean() - b) <= 3.0 * math.sqrt(var / draws)
    # the sample variance's relative standard error is sqrt(2 / draws) = 0.02
    assert abs(sizes.var(ddof=1) / var - 1.0) <= 0.1
    # per-index inclusion in 100 buckets of 1000 indices: each count is a sum
    # of independent Bernoulli(q) draws, so the statistic is chi^2 with 100
    # degrees of freedom; its 1e-6 upper quantile is about 182
    counts = np.bincount(np.concatenate(batches) // 1000, minlength=100)
    expected = draws * 1000 * q
    chi2 = float(np.sum((counts - expected) ** 2) / (expected * (1 - q)))
    assert chi2 < 182.0


def test_poisson_sample_gap_edges():
    n = 100_000
    rng = np.random.default_rng(0)
    # b / n underflows to 0.0, which numpy's geometric rejects; the batch is
    # empty, as on the Bernoulli path
    assert 1e-320 / n == 0.0
    assert poisson_sample(n, 1e-320, rng).size == 0
    # at q = 1e-300 numpy returns INT64_MAX gaps, whose sum would wrap
    # around; the cap at n + 1 keeps every index past n
    assert rng.geometric(1e-300) == np.iinfo(np.int64).max
    for _ in range(3):
        batch = poisson_sample(n, 1e-300 * n, rng)
        assert batch.dtype == np.int64 and batch.size == 0


class _UnitGaps:
    # a generator whose every gap is 1, so each chunk ends before n
    def __init__(self):
        self.calls = 0

    def geometric(self, p, size):
        self.calls += 1
        return np.ones(size, dtype=np.int64)


def test_poisson_sample_draws_more_chunks_when_a_batch_outruns_one():
    # b = 10 draws chunks of 38 gaps; 64 * 38 + 5 unit gaps take 65 chunks,
    # and every chunk continues where the last one ended
    n = 64 * 38 + 5
    rng = _UnitGaps()
    assert np.array_equal(poisson_sample(n, 10.0, rng), np.arange(n))
    assert rng.calls == 65


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
        if prob.clipped_sum is not None:
            g = prob.clipped_sum(w[None], batch, np.array([config.tau]))[0] / config.b
        else:
            g = clip_rows(prob.grads_at(w, batch), config.tau).sum(axis=0) / config.b
        if config.sigma_sq > 0:
            g = g + rng.normal(0.0, math.sqrt(config.sigma_sq), size=prob.dim)
        w = w - config.eta * g
    return w


@pytest.mark.parametrize("family", ["logistic", "logistic-9-class", "geometric-median"])
def test_run_of_a_config_list_is_bitwise_each_run_alone(family):
    # configs that share a seed share their draws; each result must still be
    # exactly the run of its config alone, returned in input order. Nine
    # classes take the class sum's numpy branch in the stacked step
    rng = np.random.default_rng(41)
    if family.startswith("logistic"):
        m = 9 if family == "logistic-9-class" else 3
        ds = planted_logistic_dataset(50, 3, m, rng, 0.5, 4.0).with_bias()
        prob = logistic_problem(ds, m)
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


@pytest.mark.parametrize("path", ["fused", "generic"])
def test_step_rejects_a_stack_whose_row_count_is_not_its_config_count(path):
    # the fused sum would step every row with one config's threshold and step
    # size, and the generic one would fail in a reshape; both must name the
    # two counts before the generator is touched
    rng = np.random.default_rng(3)
    ds = planted_logistic_dataset(30, 3, 3, rng, 0.5, 4.0).with_bias()
    prob = logistic_problem(ds, 3)
    if path == "generic":
        prob = dataclasses.replace(prob, clipped_sum=None)
    config = DpSgdConfig(T=5, eta=0.3, tau=1.0, b=5.0, sigma_sq=0.4, w0=np.zeros(prob.dim))
    cases = [
        (np.zeros((3, prob.dim)), config, "got 1 for a stack of 3"),
        (np.zeros((3, prob.dim)), [config, config], "got 2 for a stack of 3"),
        (np.zeros(prob.dim), [config, config], "got 2 for a stack of 1"),
    ]
    for w, configs, counts in cases:
        step_rng = np.random.default_rng(0)
        before = step_rng.bit_generator.state
        with pytest.raises(ValueError, match=f"need one config per iterate: {counts}$"):
            dp_sgd_step(w, prob, configs, step_rng)
        assert step_rng.bit_generator.state == before


@pytest.mark.parametrize("sigma_sq", [0.0, 0.6])
@pytest.mark.parametrize("family", ["logistic", "geometric-median"])
def test_run_is_bitwise_repeated_public_steps_of_each_group(family, sigma_sq):
    # run_dp_sgd builds each group's step constants once; its iterates must be
    # exactly t̂ calls of dp_sgd_step with the group's config list, for a group
    # of three, a group of one and a group whose t̂ is 0
    rng = np.random.default_rng(29)
    if family == "logistic":
        ds = planted_logistic_dataset(60, 3, 3, rng, 0.5, 4.0).with_bias()
        prob = logistic_problem(ds, 3)
    else:
        prob = geometric_median_problem(rng.normal(0, 3, size=(40, 2)))
    T = 12
    t_hats = {s: int(np.random.default_rng(s).integers(T)) for s in range(50)}
    zero = next(s for s, t in t_hats.items() if t == 0)
    busy = [s for s, t in t_hats.items() if t >= 6][:2]
    taus = [float(prob.lipschitz.min()), 0.5 * float(prob.lipschitz.min()), math.inf]
    groups = [
        (busy[0], list(zip([0.3, 0.1, 0.6], taus))),
        (busy[1], [(1.0, taus[1])]),
        (zero, [(0.1, taus[0]), (0.5, taus[2])]),
    ]
    configs = [
        DpSgdConfig(T=T, eta=eta, tau=tau, b=7.0, sigma_sq=sigma_sq,
                    w0=rng.normal(size=prob.dim), seed=seed)
        for seed, cells in groups
        for eta, tau in cells
    ]
    results = iter(run_dp_sgd(prob, configs))
    for seed, cells in groups:
        group = [c for c in configs if c.seed == seed]
        step_rng = np.random.default_rng(seed)
        W = np.stack([c.w0 for c in group])
        for _ in range(int(step_rng.integers(T))):
            W = dp_sgd_step(W, prob, group, step_rng)
        for w_step, w_run in zip(W, results):
            assert np.array_equal(w_run.view(np.int64), w_step.view(np.int64))
    assert next(results, None) is None
    assert np.array_equal(W, np.stack([c.w0 for c in group]))  # the t̂ = 0 group


def test_subgradient_descent_returns_the_first_strictly_smallest_objective():
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
        objective, seen = prob.objective, []
        prob.objective = lambda w: seen.append((w.copy(), objective(w))) or seen[-1][1]
        for eta in (0.03, 1.0, 3.0):
            seen.clear()
            best_w, best_f = subgradient_descent(prob, w0, eta, 60)
            values = [f for _, f in seen]
            assert len(values) == 61 and np.isfinite(values).all()
            first = values.index(min(values))
            assert best_f == values[first]
            assert np.array_equal(best_w.view(np.int64), seen[first][0].view(np.int64))


@pytest.mark.parametrize("T", [0, 1, 7])
def test_subgradient_descent_computes_one_full_gradient_per_step(T):
    prob = geometric_median_problem(np.random.default_rng(2).normal(size=(6, 3)))
    calls = []
    objective, full_gradient = prob.objective, prob.full_gradient
    prob.objective = lambda w: calls.append("f") or objective(w)
    prob.full_gradient = lambda w: calls.append("g") or full_gradient(w)
    subgradient_descent(prob, np.ones(3), 0.1, T)
    # f(w0), then per step the gradient at the iterate and f at the next one
    assert calls == ["f"] + ["g", "f"] * T


def test_reference_minimum_needs_a_step_size():
    prob = geometric_median_problem(np.zeros((2, 1)))
    with pytest.raises(ValueError, match="^etas must be nonempty$"):
        reference_minimum(prob, np.zeros(1), [], 5)


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
# The logistic clipped sum against the generic clip-then-sum path
# ---------------------------------------------------------------------------

TINY = np.finfo(float).tiny  # differences below the normal range are forgiven


def _assert_clipped_sum_agrees(prob, W, idx, taus, alone=()):
    """``clipped_sum`` against ``clip_rows`` on the formed rows. An iterate
    whose rows all have norm below its threshold by more than 1 + 1e-12 gets
    their sum bit for bit; every iterate gets it within 1e-12 of the summed
    magnitudes of its clipped rows, elementwise. Each batch position in
    ``alone``, summed by itself, has norm at most tau (1 + 1e-12). Returns
    the numbers of iterates held bitwise and of iterates that clip a row."""
    K = len(W)
    fused = prob.clipped_sum(W, idx, taus)
    grads = prob.grads_at(W, idx).reshape(K, len(idx), prob.dim)
    rows = clip_rows(grads, taus[:, None])
    generic = rows.sum(axis=1)
    assert fused.shape == generic.shape == (K, prob.dim)
    norms = row_norms(grads)
    below = (norms * (1 + 1e-12) < taus[:, None]).all(axis=1)
    assert np.array_equal(fused[below].view(np.int64), generic[below].view(np.int64))
    assert array_differences(generic, fused, np.abs(rows).sum(axis=1), abs_tol=TINY) == []
    for b in alone:
        assert np.all(row_norms(prob.clipped_sum(W, idx[b : b + 1], taus)) <= taus * (1 + 1e-12))
    return int(below.sum()), int((norms > taus[:, None]).any(axis=1).sum())


@pytest.mark.parametrize("m", [2, 3, 5, 9])
def test_clipped_sum_is_bitwise_the_generic_path(m):
    # every shape of the grid and every kind of threshold: none, all, some or
    # one row clipped, and a threshold at or one ulp below a row's norm. A
    # zero feature column (every row of it when d = 1) gives -0.0 products,
    # and rows scaled by 1e150-1e300 have norms that row_norms rescales.
    # Iterates that clip nothing are held bitwise, the others to tolerance
    rng = np.random.default_rng(100 + m)
    n = 600
    cases, bitwise, clipped = 0, 0, 0
    for d in (1, 2, 21, 63):
        ds = planted_logistic_dataset(n, d, m, rng, 0.05, 50.0)
        X = ds.features.copy()
        X[:, 0] = np.where(np.arange(n) % 5 == 0, 0.0, X[:, 0]) if d == 1 else 0.0
        X[3::50] *= 10.0 ** rng.uniform(150, 300, size=(len(X[3::50]), 1))
        prob = logistic_problem(Dataset(X, ds.labels), m)
        G_min, G_max = float(prob.lipschitz[prob.lipschitz > 0].min()), float(prob.lipschitz.max())
        for B in (0, 1, 2, 100, 500):
            idx = np.sort(rng.choice(n, B, replace=False))
            for K in (1, 2, 10):
                W = rng.normal(size=(K, prob.dim)) * rng.choice([0.01, 0.3, 3.0], size=(K, 1))
                thresholds = [G_min, G_max, math.inf, 1e-6]
                norms = row_norms(prob.grads_at(W, idx))
                if norms.any():
                    N = rng.choice(norms[norms > 0])
                    thresholds += [N, np.nextafter(N, 0)]
                alone = [*rng.choice(B, min(B, 2), replace=False), *np.argmax(
                    norms.reshape(K, B), axis=1)[:1]] if B else []
                for taus in [np.full(K, tau) for tau in thresholds] + [
                    rng.choice(thresholds, size=K)
                ]:
                    held, clips = _assert_clipped_sum_agrees(prob, W, idx, taus, alone)
                    bitwise, clipped, cases = bitwise + held, clipped + clips, cases + 1
    assert cases > 350 and bitwise > 500 and clipped > 500


def test_clipped_sum_at_a_threshold_one_ulp_below_a_norm_the_bound_misses():
    # the rank-one norm ||p - e_y|| ||x|| is computed with its own rounding,
    # so on some rows it lands below the computed norm N. A threshold of
    # nextafter(N, 0) there clips the formed row, and the fused sum may keep
    # the row whole: its norm N is within tau (1 + 1e-12), and the sums agree
    # to the tolerance. The bias coordinate 1.0 exposes p - e_y exactly
    rng = np.random.default_rng(7)
    ds = planted_logistic_dataset(300, 20, 3, rng, 0.5, 20.0).with_bias()
    prob = logistic_problem(ds, 3)
    K, m, d = 4, 3, ds.dim
    missed = 0
    for _ in range(300):
        W = rng.normal(size=(K, prob.dim)) * rng.choice([0.05, 0.5])
        idx = np.flatnonzero(rng.random(prob.n) < 0.1)
        grads = prob.grads_at(W, idx).reshape(K, idx.size, m * d)
        N = row_norms(grads)
        c = np.ascontiguousarray(grads.reshape(K, idx.size, m, d)[..., -1])
        Xb = ds.features[idx]
        ghost = np.sqrt(np.sum(c * c, axis=2)) * np.sqrt(np.add.reduce(Xb * Xb, axis=1))
        below = np.argwhere(ghost < np.nextafter(N, 0))
        if not below.size:
            continue
        missed += 1
        k, b = below[rng.integers(len(below))]
        taus = rng.choice([prob.lipschitz.min(), math.inf], size=K)
        taus[k] = np.nextafter(N[k, b], 0)
        _assert_clipped_sum_agrees(prob, W, idx, taus, alone=[b])
    assert missed > 30


def test_clipped_sum_when_squares_of_the_bound_underflow():
    # x = 2**500 and a logit gap of 360-400 give p - e_y = (0, ~4e-157) to
    # (0, ~2e-174), whose squares are subnormal or 0, while the row
    # (0, ~1e-160 * x) is not small. ||p - e_y|| must keep every digit, or
    # such a row would be clipped to the wrong norm, or not clipped at all
    x = 2.0**500
    prob = logistic_problem(Dataset(np.full((3, 1), x), np.zeros(3, dtype=int)), 2)
    gaps = np.linspace(360.0, 400.0, 400)
    W = np.column_stack([gaps / x, np.zeros_like(gaps)])
    idx = np.array([1])
    grads = prob.grads_at(W, idx)
    N = row_norms(grads)
    c = grads / x  # exact: a power of two
    squares = np.sum(c * c, axis=1)
    assert np.count_nonzero(squares < TINY) > 300 and np.count_nonzero(squares == 0.0) > 100
    for taus in (np.nextafter(N, 0), N / 2):
        _assert_clipped_sum_agrees(prob, W, idx, taus, alone=[0])
    # in a stack whose first iterate clips, tau / ||p - e_y|| overflows to inf
    # past a gap of about 687 and divides by zero past 745, with no warning
    far = np.column_stack([np.linspace(360.0, 760.0, 50) / x, np.zeros(50)])
    taus = np.full(50, 1e10)
    taus[0] = row_norms(prob.grads_at(far[:1], idx))[0] / 2
    assert _assert_clipped_sum_agrees(prob, far, idx, taus, alone=[0]) == (49, 1)


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("B", [8191, 8192, 8193, 9000, 20000])
def test_clipped_sum_is_bitwise_the_generic_path_past_the_iterator_buffer(B, K):
    # numpy's iterator buffers 8192 elements; the in-order sum of an iterate
    # that clips nothing keeps its reduction over the batch an outer loop, so
    # batches on either side of that size still add their rows in order, as
    # the generic sum does. Iterates that clip agree to tolerance
    rng = np.random.default_rng(B + K)
    ds = planted_logistic_dataset(20000, 3, 3, rng, 0.05, 50.0).with_bias()
    prob = logistic_problem(ds, 3)
    idx = np.sort(rng.choice(prob.n, B, replace=False))
    W = rng.normal(size=(K, prob.dim)) * rng.choice([0.05, 0.5, 3.0], size=(K, 1))
    taus = rng.choice([prob.lipschitz.min(), float(np.median(prob.lipschitz)), math.inf], size=K)
    taus[0] = prob.lipschitz.min()
    assert _assert_clipped_sum_agrees(prob, W, idx, taus, alone=[0, B - 1])[1] >= 1
    assert _assert_clipped_sum_agrees(prob, W, idx, np.full(K, math.inf)) == (K, 0)


@pytest.mark.parametrize("m", [2, 3, 9])
def test_clipped_sum_of_a_mixed_stack_is_each_iterate_alone(m):
    # a stack whose iterates clip takes one gemm each and one whose iterates
    # clip nothing the in-order sum; a stack that mixes them must still give
    # each iterate exactly its sum alone, and each unclipped one exactly its
    # gradient rows summed in order, at every batch size. At d = 1 grads_at
    # returns its rows class-major, which numpy sums pairwise, so they are
    # summed from a row-major copy
    rng = np.random.default_rng(200 + m)
    mixed = 0
    for d, n, sizes in ((1, 400, (1, 2, 100, 400)), (2, 9000, (8193, 9000)), (21, 400, (3, 250))):
        prob = logistic_problem(planted_logistic_dataset(n, d, m, rng, 0.05, 50.0), m)
        G_min, G_max = float(prob.lipschitz.min()), float(prob.lipschitz.max())
        for B in sizes:
            idx = np.sort(rng.choice(n, B, replace=False))
            for K in (2, 5, 10):
                W = rng.normal(size=(K, prob.dim)) * rng.choice([0.01, 0.3, 3.0], size=(K, 1))
                taus = rng.permutation([G_min / 4, math.inf, *rng.choice(
                    [G_min / 4, G_min, 2 * G_max, math.inf], size=K - 2)])
                stacked = prob.clipped_sum(W, idx, taus)
                norms = row_norms(prob.grads_at(W, idx)).reshape(K, B)
                clips = (norms > taus[:, None]).any(axis=1)
                mixed += clips.any() and not clips.all()
                for k in range(K):
                    alone = prob.clipped_sum(W[k : k + 1], idx, taus[k : k + 1])[0]
                    assert np.array_equal(stacked[k].view(np.int64), alone.view(np.int64))
                    if taus[k] > G_max:
                        rows = np.ascontiguousarray(prob.grads_at(W[k], idx)).sum(axis=0)
                        assert np.array_equal(stacked[k].view(np.int64), rows.view(np.int64))
    assert mixed > 20


@pytest.mark.parametrize("sigma_sq", [0.0, 0.7])
def test_run_iterates_with_clipped_sum_are_bitwise_those_without(sigma_sq):
    # a config whose threshold no row reaches runs bit for bit as on the
    # formed rows; one that clips agrees with it to within 1e-12 of the
    # iterate's largest entry after 60 steps
    rng = np.random.default_rng(17)
    ds = planted_logistic_dataset(400, 8, 3, rng, 0.2, 30.0).with_bias()
    prob = logistic_problem(ds, 3)
    generic = dataclasses.replace(prob, clipped_sum=None)
    assert prob.clipped_sum is not None and generic.clipped_sum is None
    taus = [prob.lipschitz.min(), float(np.median(prob.lipschitz)), prob.lipschitz.max(), math.inf]
    configs = [
        DpSgdConfig(T=60, eta=eta, tau=tau, b=b, sigma_sq=sigma_sq,
                    w0=0.1 * rng.normal(size=prob.dim), seed=seed)
        for seed, b in ((0, 25.0), (3, 25.0), (3, 60.0))
        for eta in (0.1, 1.0)
        for tau in taus
    ]
    moved = 0
    for c, w, w_generic in zip(configs, run_dp_sgd(prob, configs), run_dp_sgd(generic, configs)):
        if c.tau >= prob.lipschitz.max():
            assert np.array_equal(w.view(np.int64), w_generic.view(np.int64))
        else:
            scale = np.abs(w_generic).max()
            assert array_differences(w_generic, w, scale, abs_tol=TINY) == []
            moved += not np.array_equal(w, c.w0)
    assert moved == len(configs) // 2


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
    # C / (T tau) overflows to inf or underflows to 0: rejected, as for the clip norm
    for G, C, eta in ((1.0, math.inf, "inf"), (1e-10, 1e308, "inf"), (1e300, 5e-324, "0.0")):
        with pytest.raises(ValueError, match=f"schedule step size is {eta} at clip norm"):
            schedule_unconstrained_convex(G, 0.5, C, 10, 0.1, 2.0)
    for phi in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="phi must be positive"):
            schedule_unconstrained_convex(1.0, 0.5, 1.0, 10, phi, 2.0)
    # phi^2 overflows (epsilon ~ 1e-160), so tau would be 0 and eta = C / 0
    for phi in (1e160, math.inf):
        with pytest.warns(PrivacyRegimeWarning), pytest.raises(
            ValueError, match="clip norm is 0.0 .*epsilon too small"
        ):
            schedule_unconstrained_convex(1.0, 0.5, 1.0, 10, phi, 2.0)
