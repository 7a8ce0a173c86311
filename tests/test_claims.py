"""The paper's claims beyond the acceptance checks, each at a reduced size.

The recommendation to tune the clip norm only up to G_min is stated for
convex over-parameterized problems, whose per-sample losses share a
minimiser; the planted labels hold that, and flipped labels break it. The
heavy-tailed results also cover nonconvex losses, where the guarantee bounds
E||grad F(w_t̂)||^2. Each test compares clip norms on the same data, at each
norm's best step size, so neither needs a reference minimum. Run with
``pytest -s`` to see the measured tables.
"""

import numpy as np

from dpclip.clipping import row_norms
from dpclip.lipschitz import build_profile, percentile
from dpclip.losses import Dataset, Problem, logistic_problem, planted_logistic_dataset
from dpclip.optimizer import DpSgdConfig, run_dp_sgd
from dpclip.privacy import PrivacyBudget, noise_variance

BUDGET = PrivacyBudget(epsilon=2.0, delta=1e-5)
QUANTILES = (0, 50, 100)  # G_min, p50, G_max


def final_iterates(problem, etas, T, b, seeds):
    """The (tau, eta, seed) iterates of DP-SGD from the origin, in one call,
    with tau the clip norms at QUANTILES of the per-sample constants."""
    profile = build_profile(problem)
    configs = [
        DpSgdConfig(T=T, eta=eta, tau=tau, b=b,
                    sigma_sq=noise_variance(T, tau, problem.n, BUDGET).sigma_sq,
                    w0=np.zeros(problem.dim), seed=seed)
        for tau in (percentile(profile, q) for q in QUANTILES)
        for eta in etas for seed in seeds
    ]
    return run_dp_sgd(problem, configs)


def flip_labels(ds: Dataset, rho: float, classes: int, rng) -> Dataset:
    """A copy of ``ds`` whose labels, at a share ``rho`` of rows drawn without
    replacement, move to a uniformly drawn other class."""
    labels = ds.labels.copy()
    rows = rng.choice(ds.n, size=round(rho * ds.n), replace=False)
    labels[rows] = (labels[rows] + rng.integers(1, classes, size=rows.size)) % classes
    return Dataset(ds.features, labels, ds.bias_appended)


def best_mean_objective(master_seed: int, rho: float) -> np.ndarray:
    """Per clip norm in QUANTILES, the best-over-eta mean f(w) on c08's planted
    data at n = 1000 with a share ``rho`` of labels flipped."""
    etas, seeds = (0.01, 0.1, 1.0, 10.0), range(3)
    # the generator and stream sweep-clip --synthetic planted uses
    ds = planted_logistic_dataset(1000, 20, 3, np.random.default_rng([master_seed, 11]),
                                  norm_low=0.4, norm_high=8.0).with_bias()
    flipped = flip_labels(ds, rho, 3, np.random.default_rng([master_seed, 19]))
    problem = logistic_problem(flipped, 3)
    ws = final_iterates(problem, etas, T=200, b=100.0, seeds=seeds)
    f = np.array([problem.objective(w) for w in ws]).reshape(len(QUANTILES), len(etas), -1)
    return f.mean(axis=2).min(axis=1)


def test_g_min_advantage_holds_on_separable_labels_and_turns_with_label_noise():
    # separable labels: G_min <= p50 < G_max at every master seed
    for master_seed in range(5):
        g_min, p50, g_max = best_mean_objective(master_seed, rho=0.0)
        print(f"rho 0   master {master_seed}: G_min {g_min:.4f}  p50 {p50:.4f}  G_max {g_max:.4f}")
        assert g_min <= p50 < g_max, master_seed
    # 20% of labels flipped: no shared minimiser, and p50 beats G_min
    for master_seed in range(10):
        g_min, p50, g_max = best_mean_objective(master_seed, rho=0.2)
        print(f"rho 0.2 master {master_seed}: G_min {g_min:.4f}  p50 {p50:.4f}  G_max {g_max:.4f}")
        assert p50 < g_min, master_seed


def cauchy_problem(X: np.ndarray, y: np.ndarray) -> Problem:
    """Robust regression f_i(w) = log(1 + r_i^2), r_i = <w, x_i> - y_i: nonconvex,
    with gradient 2 r_i / (1 + r_i^2) x_i, so ||x_i|| bounds its norm. It has
    no fused clipped sum, so DP-SGD clips its formed gradient rows."""

    def residuals(W, idx):
        # an elementwise row sum, so each iterate's rows are bitwise its own
        return (X[idx] * W[:, None, :]).sum(axis=-1) - y[idx]

    def batch_loss(w, idx):
        return np.log1p(residuals(w[None], idx)[0] ** 2)

    def batch_grad(W, idx):
        r = residuals(W, idx)
        return ((2 * r / (1 + r * r))[:, :, None] * X[idx]).reshape(-1, X.shape[1])

    return Problem(n=len(y), dim=X.shape[1], lipschitz=row_norms(X),
                   batch_loss=batch_loss, batch_grad=batch_grad)


def best_mean_grad_norm_sq(master_seed: int, heavy: bool) -> np.ndarray:
    """Per clip norm in QUANTILES, the least mean ||grad F(w_t̂)||^2 over an eta
    grid, among the step sizes whose mean F(w_t̂) is at most F(w0).

    The Cauchy gradient vanishes as |r| grows, so a step size that diverges
    reaches a tiny gradient norm far from any minimiser; with Pareto(2) radii
    G_max at eta = 3 ends at |w| ~ 136 with F ~ 7, against F(w0) ~ 1. Such a
    step size is not a candidate."""
    n, d, etas, seeds = 2000, 10, (0.01, 0.03, 0.1, 0.3, 1.0, 3.0), range(5)
    rng = np.random.default_rng([master_seed, 20])
    u = rng.normal(size=(n, d))
    radii = 1.0 + rng.pareto(2.0, size=n) if heavy else rng.uniform(0.5, 2.0, size=n)
    X = u / row_norms(u)[:, None] * radii[:, None]
    problem = cauchy_problem(X, X @ rng.normal(size=d) + 0.5 * rng.normal(size=n))
    ws = final_iterates(problem, etas, T=300, b=50.0, seeds=seeds)
    shape = (len(QUANTILES), len(etas), -1)
    f = np.array([problem.objective(w) for w in ws]).reshape(shape).mean(axis=2)
    g2 = np.array([np.sum(problem.full_gradient(w) ** 2) for w in ws]).reshape(shape).mean(axis=2)
    descended = f <= problem.objective(np.zeros(d))
    assert descended.any(axis=1).all(), master_seed
    return np.where(descended, g2, np.inf).min(axis=1)


def test_nonconvex_heavy_tails_favour_clip_norms_below_g_max():
    # Pareto(2) per-sample constants: G_max's noise swamps the clipping bias
    for master_seed in range(5):
        g_min, p50, g_max = best_mean_grad_norm_sq(master_seed, heavy=True)
        print(f"Pareto(2) master {master_seed}: G_min {g_min:.2e} p50 {p50:.2e} G_max {g_max:.2e}")
        assert g_max > max(g_min, p50), master_seed
    # mild tails, reported only
    g_min, p50, g_max = best_mean_grad_norm_sq(0, heavy=False)
    print(f"uniform 0.5-2 master 0: G_min {g_min:.2e} p50 {p50:.2e} G_max {g_max:.2e}")
