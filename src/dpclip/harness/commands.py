"""Experiment commands: clip-norm sweeps, the private-min-Lipschitz pipeline,
privacy-rate scaling studies, clipping-bias oracle suites and the hard-instance
demo. Every command is deterministic given (spec, master seed) and emits a
schema-stable CSV."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..clipping import (
    DiscreteVectorDistribution,
    bias_bound_corollary,
    bias_bound_lemma,
    clipping_bias_exact,
)
from ..lipschitz import build_profile, percentile
from ..losses import (
    Dataset,
    Problem,
    QvSpec,
    hard_instance_problem,
    heavy_tailed_logistic_dataset,
    load_dataset_csv,
    logistic_problem,
    planted_logistic_dataset,
    sample_Qv_many,
)
from ..optimizer import DpSgdConfig, run_dp_sgd, schedule_unconstrained_convex
# unused here, but bench/child.py's set-up hook and tracer look it up on this module
from ..optimizer import reference_minimum  # noqa: F401
from ..privacy import PrivacyBudget, compute_phi, noise_variance, report_noisy_max
from .io import write_csv
from .spec import ExperimentSpec, OracleFailure, SpecValidationError, clip_candidate

# sub-stream tags so dataset generation, selection noise and runs never share draws
_TAG_PLANTED = 11
_TAG_HEAVY = 12
_TAG_RNMM = 13
_TAG_QV = 14
_TAG_BIAS = 15


@dataclass
class SweepReport:
    """The per-clip-norm best-over-eta aggregate."""

    metric_kind: str
    rows: list[list]  # CSV rows (tau, tau_kind, eta_best, mean, std)


def _check_fits(batch: float, n: int) -> None:
    """The one rule for a batch and its data: a batch may not exceed n rows."""
    if batch > n:
        raise SpecValidationError(f"batch {batch} exceeds dataset size {n}")


def _build_problem(spec: ExperimentSpec, *key: int) -> tuple[Problem, Dataset | None]:
    """The logistic problem on the spec's data and the held-out split, if any;
    ``key`` extends the seed of the heavy-tailed generator, so each
    phi-scaling size draws its own data."""
    if spec.csv is not None:
        train = load_dataset_csv(spec.csv, append_bias=spec.append_bias)
        test, m = None, train.num_classes
        if spec.test_csv is not None:
            test = load_dataset_csv(spec.test_csv, append_bias=spec.append_bias)
            if test.dim != train.dim:
                raise SpecValidationError("train/test feature dimensions differ")
            m = max(m, test.num_classes)
        _check_fits(spec.batch, train.n)
        return logistic_problem(train, m), test
    if spec.synthetic is None:
        raise SpecValidationError("provide --csv PATH or --synthetic {planted,heavy}")
    _check_fits(spec.batch, spec.n)
    if spec.synthetic == "planted":
        rng = np.random.default_rng([spec.master_seed, _TAG_PLANTED])
        train = planted_logistic_dataset(
            spec.n, spec.dim, spec.classes, rng, spec.norm_low, spec.norm_high
        )
    else:
        rng = np.random.default_rng([spec.master_seed, _TAG_HEAVY, *key])
        train = heavy_tailed_logistic_dataset(
            spec.n, spec.dim, spec.classes, spec.tail_k, rng
        )
    if spec.append_bias:
        train = train.with_bias()
    return logistic_problem(train, spec.classes), None


def _metric_value(problem: Problem, test: Dataset | None, w: np.ndarray) -> float:
    """Held-out accuracy when a test split is given, else f(w). Cross-entropy
    is nonnegative and the generators' planted labels are separable, so on
    their data inf f = 0 and f(w) is the exact suboptimality; on CSV data it
    is the training loss. A diverged iterate's scores are not finite, and
    its accuracy is NaN, as its f(w) is, not argmax's class 0."""
    if test is not None:
        scores = test.features @ w.reshape(-1, test.dim).T
        if not np.isfinite(scores).all():
            return math.nan
        return float(np.mean(np.argmax(scores, axis=1) == test.labels))
    return problem.objective(w)


def _sigma_sq_for(spec: ExperimentSpec, tau: float, problem: Problem) -> float:
    if spec.no_noise:
        return 0.0
    budget = PrivacyBudget(spec.epsilon, spec.delta)
    return noise_variance(
        spec.iterations, tau, problem.n, budget, problem.dim, expected_batch=spec.batch
    ).sigma_sq


def _run_cells(
    problem: Problem, test: Dataset | None, spec: ExperimentSpec,
    cells: list[tuple[float, float, float]],
) -> np.ndarray:
    """The (cell, seed) array of metrics: one DP-SGD run from the origin per
    (tau, eta, sigma_sq) cell and spec seed.

    Every run of every cell goes into one ``run_dp_sgd`` call, so the cells
    share each seed's batches and noise.
    """
    configs = [
        DpSgdConfig(
            T=spec.iterations,
            eta=eta,
            tau=tau,
            b=spec.batch,
            sigma_sq=sigma_sq,
            w0=np.zeros(problem.dim),
            seed=seed,
        )
        for tau, eta, sigma_sq in cells
        for seed in spec.seeds
    ]
    metrics = [_metric_value(problem, test, w) for w in run_dp_sgd(problem, configs)]
    return np.array(metrics).reshape(len(cells), len(spec.seeds))


def _best_over_eta(
    test: Dataset | None, spec: ExperimentSpec, taus: list[float], metrics: np.ndarray
) -> list[tuple[float, float, float]]:
    """Each clip norm's best (eta, mean, std) from the (tau, eta, seed) metrics:
    the highest mean accuracy (with a test split) or the lowest mean
    suboptimality; the first of equal means wins, and a NaN mean never does."""
    means, stds = metrics.mean(axis=2), metrics.std(axis=2)
    pick = np.argmax if test is not None else np.argmin
    best = []
    for tau, mean, std in zip(taus, means, stds):
        scored = np.flatnonzero(~np.isnan(mean))
        if not len(scored):
            raise SpecValidationError(f"every eta gives a NaN mean metric at clip norm {tau!r}")
        i = scored[pick(mean[scored])]
        best.append((spec.eta_grid[i], float(mean[i]), float(std[i])))
    return best


def _sweep(
    problem: Problem, test: Dataset | None, spec: ExperimentSpec, taus: list[float]
) -> list[tuple[float, float, float]]:
    """Best-over-eta stats per clip norm.

    The noise of every clip norm is calibrated first, so a norm that cannot be
    run fails before any DP-SGD run.
    """
    sigma_sqs = [_sigma_sq_for(spec, tau, problem) for tau in taus]
    cells = [
        (tau, eta, sigma_sq)
        for tau, sigma_sq in zip(taus, sigma_sqs)
        for eta in spec.eta_grid
    ]
    metrics = _run_cells(problem, test, spec, cells)
    return _best_over_eta(test, spec, taus, metrics.reshape(len(taus), len(spec.eta_grid), -1))


def cmd_sweep_clip(spec: ExperimentSpec) -> SweepReport:
    """Best-over-eta metric per clip-norm candidate, averaged over seeds."""
    problem, test = _build_problem(spec)
    profile = build_profile(problem)
    candidates = [
        (kind, percentile(profile, value) if kind == "percentile" else value)
        for kind, value in map(clip_candidate, spec.clip_candidates)
    ]
    results = _sweep(problem, test, spec, [tau for _, tau in candidates])
    rows = [[tau, kind, *stats] for (kind, tau), stats in zip(candidates, results)]
    if test is not None:
        metric_kind = "accuracy"
    else:  # inf f = 0 is certified only for the generators' planted labels
        metric_kind = "train_loss" if spec.csv is not None else "suboptimality"
    write_csv(spec.out, ["tau", "tau_kind", "eta_best", "mean_metric", "std_metric"], rows)
    print(f"sweep-clip: {len(rows)} clip norms -> {spec.out} ({metric_kind})")
    return SweepReport(metric_kind=metric_kind, rows=rows)


def cmd_rnmm_pipeline(spec: ExperimentSpec) -> dict:
    """Select a small Lipschitz constant by report noisy max, then run DP-SGD with it.

    The total budget splits additively: eps_rnmm for selection, the remainder
    for DP-SGD. Report noisy max keeps only the selected index private:
    ``tau_selected`` is that sample's clamped constant, released without
    noise, and ``tau_oracle`` (the non-private G_min baseline it is reported
    next to) is not private either.
    """
    if spec.eps_rnmm is None:
        raise SpecValidationError("rnmm-pipeline requires --eps-rnmm")
    if spec.eps_rnmm == math.inf:
        eps_dpsgd = spec.epsilon
    else:
        if not 0 < spec.eps_rnmm < spec.epsilon:
            raise SpecValidationError("need 0 < eps_rnmm < eps_total")
        eps_dpsgd = spec.epsilon - spec.eps_rnmm
    problem, test = _build_problem(spec)
    profile = build_profile(problem)
    clamp = spec.rnmm_clamp if spec.rnmm_clamp is not None else percentile(profile, 99.9)
    clamped = np.minimum(problem.lipschitz, clamp)
    rng = np.random.default_rng([spec.master_seed, _TAG_RNMM])
    selected = report_noisy_max(-clamped, spec.eps_rnmm, clamp, rng)
    tau_selected = float(clamped[selected])
    tau_oracle = profile.minimum

    run_spec = replace(spec, epsilon=eps_dpsgd)
    (_, metric_with, _), (_, metric_without, _) = _sweep(
        problem, test, run_spec, [tau_selected, tau_oracle]
    )
    report = {
        "eps_total": spec.epsilon,
        "eps_rnmm": spec.eps_rnmm,
        "eps_dpsgd": eps_dpsgd,
        "tau_selected": tau_selected,
        "tau_oracle": tau_oracle,
        "metric_with": metric_with,
        "metric_without": metric_without,
    }
    header = list(report.keys())
    write_csv(spec.out, header, [[report[k] for k in header]])
    print(
        f"rnmm-pipeline: tau_selected={tau_selected:.6g} (oracle {tau_oracle:.6g}) "
        f"-> {spec.out}"
    )
    return report


def cmd_phi_scaling(spec: ExperimentSpec) -> list[list]:
    """Median convex risk of the heavy-tailed synthetic problem per dataset size.

    For each n the clip norm and step size come from the unconstrained convex
    schedule, with the moment bound G estimated non-privately from the
    empirical k-th moment of the per-sample constants.
    """
    if spec.synthetic not in (None, "heavy"):
        raise SpecValidationError("phi-scaling runs heavy-tailed data: --synthetic heavy")
    _check_fits(spec.batch, min(spec.n_list))
    budget = PrivacyBudget(spec.epsilon, spec.delta)
    k = spec.moment_k
    # every size's schedule and noise first, so a size that cannot be run
    # fails before any DP-SGD run of another size
    cases = []
    for n in spec.n_list:
        problem, _ = _build_problem(replace(spec, n=n, synthetic="heavy"), n)
        phi = compute_phi(n, problem.dim, budget)
        lip = problem.lipschitz
        with np.errstate(over="ignore"):
            g_emp = float(np.mean(lip**k) ** (1.0 / k))
        if not math.isfinite(g_emp):  # lip**k overflowed: factor out the largest
            g_emp = float(lip.max() * np.mean((lip / lip.max()) ** k) ** (1.0 / k))
        tau, eta = schedule_unconstrained_convex(
            g_emp, spec.gamma, spec.growth_c, spec.iterations, phi, k
        )
        cases.append((n, phi, problem, tau, eta, _sigma_sq_for(spec, tau, problem)))
    rows = []
    for n, phi, problem, tau, eta, sigma_sq in cases:
        (risks,) = _run_cells(problem, None, spec, [(tau, eta, sigma_sq)])
        rows.append([n, phi, k, float(np.median(risks))])
    write_csv(spec.out, ["n", "phi", "k", "median_risk"], rows)
    print(f"phi-scaling: {len(rows)} dataset sizes -> {spec.out}")
    return rows


def cmd_bias_oracle(spec: ExperimentSpec) -> bool:
    """Check exact bias <= moment/tail bound <= Markov bound on random instances.

    Emits one CSV row per (distribution, p, tau) with both margins; any
    margin below -1e-9 times max(1, largest atom norm, tau), or any NaN
    margin, fails the oracle (exit code 2).
    """
    rng = np.random.default_rng([spec.master_seed, _TAG_BIAS])
    tau_fractions = (0.05, 0.15, 0.3, 0.5, 0.75, 1.0, 1.1)
    rows = []
    worst = math.inf
    for dist_id in range(spec.count):
        m = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        scale = math.exp(rng.uniform(-1.0, 2.0))
        vectors = rng.normal(0.0, scale, size=(m, d))
        probs = rng.random(m) + 0.05
        probs /= probs.sum()
        dist = DiscreteVectorDistribution(vectors=vectors, probs=probs)
        max_norm = float(dist.norms().max())
        for p in spec.p_list:
            for frac in tau_fractions:
                tau = max(frac * max_norm, 1e-9)
                exact = clipping_bias_exact(dist, tau)
                lemma = bias_bound_lemma(dist, tau, p)
                corollary = bias_bound_corollary(dist, tau, p)
                m_lemma = lemma - exact
                m_cor = corollary - lemma
                # relative to the terms the bounds are built from: the lemma
                # bound subtracts two of size tau, so it can land an ulp of
                # tau below an exact bias of 0
                size = max(1.0, max_norm, tau)
                worst = min(worst, m_lemma / size, m_cor / size)
                rows.append([dist_id, p, tau, exact, lemma, corollary, m_lemma, m_cor])
    write_csv(
        spec.out,
        ["dist_id", "p", "tau", "bias_exact", "lemma_bound",
         "corollary_bound", "margin_lemma", "margin_corollary"],
        rows,
    )
    nan_at = [tuple(row[:3]) for row in rows if np.isnan(row[6:]).any()]
    passed = worst >= -1e-9 and not nan_at
    status = "PASS" if passed else "FAIL"
    print(f"bias-oracle: {len(rows)} checks, worst relative margin {worst:.3e} [{status}]")
    if nan_at:
        raise OracleFailure(f"NaN margin at (dist_id, p, tau) = {nan_at[0]}")
    if not passed:
        raise OracleFailure(f"bias bound chain violated: worst relative margin {worst:.3e}")
    return True


def cmd_lower_bound_demo(spec: ExperimentSpec) -> list[list]:
    """Run DP-SGD on the two-atom hard instance with the unconstrained convex
    schedule; the risk is measured against the ERM minimizer v/||v||.

    The achieved risk is reported next to phi^(1-1/k) for information only.
    The instance's properties (sampler mean, minimizer location, gradient
    moment bound, linear growth) are checked by the test suite, not here.
    """
    d = spec.dim
    if d < 2 or d % 2 != 0:
        raise SpecValidationError(f"lower-bound-demo requires an even dim >= 2, got {d}")
    _check_fits(spec.batch, spec.n)
    k = spec.moment_k
    rng = np.random.default_rng([spec.master_seed, _TAG_QV])
    v = np.zeros(d)
    v[rng.permutation(d)[: d // 2]] = 1.0
    qv = QvSpec(v=v, p=spec.qv_p, k=k)
    xs = sample_Qv_many(qv, spec.n, rng)
    x_bar = xs.mean(axis=0)
    budget = PrivacyBudget(spec.epsilon, spec.delta)
    phi = compute_phi(spec.n, d, budget)
    phi_scale = phi ** (1.0 - 1.0 / k)

    if float(np.linalg.norm(x_bar)) == 0.0:
        # every draw hit the zero atom, so the objective is identically zero
        rows = [[seed, 0.0, phi_scale, 1] for seed in spec.seeds]
        write_csv(spec.out, ["seed", "risk", "phi_power_scale", "degenerate"], rows)
        print("lower-bound-demo: degenerate all-zero dataset (objective is 0)")
        return rows

    problem = hard_instance_problem(xs)
    w_star = v / np.linalg.norm(v)
    f_star = problem.objective(w_star)
    g = 3.0 * float(np.linalg.norm(v))
    tau, eta = schedule_unconstrained_convex(
        g, spec.gamma, spec.growth_c, spec.iterations, phi, k
    )
    sigma_sq = _sigma_sq_for(spec, tau, problem)
    (risks,) = _run_cells(problem, None, spec, [(tau, eta, sigma_sq)]) - f_star
    rows = [[seed, risk, phi_scale, 0] for seed, risk in zip(spec.seeds, risks)]
    write_csv(spec.out, ["seed", "risk", "phi_power_scale", "degenerate"], rows)
    print(
        f"lower-bound-demo: {len(rows)} runs -> {spec.out} "
        f"(phi^(1-1/k) = {phi_scale:.4g})"
    )
    return rows


COMMANDS = {
    "sweep-clip": cmd_sweep_clip,
    "rnmm-pipeline": cmd_rnmm_pipeline,
    "phi-scaling": cmd_phi_scaling,
    "bias-oracle": cmd_bias_oracle,
    "lower-bound-demo": cmd_lower_bound_demo,
}
