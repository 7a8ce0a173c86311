"""Tests for the experiment commands and CLI plumbing."""

import json
import math

import numpy as np
import pytest

from dpclip.harness.cli import main
from dpclip.harness.commands import (
    cmd_lower_bound_demo,
    cmd_phi_scaling,
    cmd_rnmm_pipeline,
    cmd_sweep_clip,
    resolve_candidates,
)
from dpclip.harness.spec import ExperimentSpec, SpecValidationError
from dpclip.lipschitz import LipschitzProfile
from dpclip.losses import logistic_problem, planted_logistic_dataset
from dpclip.optimizer import reference_minimum
from dpclip.privacy import PrivacyBudget, compute_phi

PROFILE = LipschitzProfile(g=np.array([1.0, 2.0, 4.0, 8.0]))


def _tiny_spec(command, out, **kw):
    base = dict(
        command=command,
        out=str(out),
        master_seed=3,
        seeds=(0, 1),
        synthetic="planted",
        n=120,
        dim=4,
        classes=3,
        norm_low=0.5,
        norm_high=4.0,
        append_bias=True,
        epsilon=2.0,
        iterations=40,
        batch=20.0,
        eta_grid=(0.1, 0.3),
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_resolve_candidates():
    resolved = resolve_candidates(("p0", "p100", "2.5", "inf"), PROFILE)
    assert resolved[0] == ("p0", "percentile", 1.0)
    assert resolved[1] == ("p100", "percentile", 8.0)
    assert resolved[2] == ("2.5", "absolute", 2.5)
    assert resolved[3][1] == "infinite" and math.isinf(resolved[3][2])
    for bad in (("pxyz",), ("-1.0",), ("p150",), ()):
        with pytest.raises((SpecValidationError, ValueError)):
            resolve_candidates(bad, PROFILE)


def test_spec_validation():
    with pytest.raises(SpecValidationError):
        ExperimentSpec(command="sweep-clip", out="x.csv", seeds=())
    with pytest.raises(SpecValidationError):
        ExperimentSpec(command="sweep-clip", out="x.csv", seeds=(-1,))
    with pytest.raises(SpecValidationError):
        ExperimentSpec(command="sweep-clip", out="")


def test_sweep_row_cardinality_and_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    spec = _tiny_spec("sweep-clip", out, clip_candidates=("p0", "p100"))
    report = cmd_sweep_clip(spec)
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "tau,tau_kind,eta_best,mean_metric,std_metric"
    assert len(lines) == 3  # header + one row per candidate
    assert report.metric_kind == "suboptimality"
    assert len(report.cells) == 2 * 2 * 2  # taus x etas x seeds


def test_sweep_constant_metric_has_zero_std(tmp_path):
    # T = 1 always returns w0, so the metric is constant across seeds
    out = tmp_path / "const.csv"
    spec = _tiny_spec(
        "sweep-clip", out, no_noise=True, iterations=1, clip_candidates=("p50",),
        seeds=(0, 1, 2), eta_grid=(0.1,),
    )
    report = cmd_sweep_clip(spec)
    tau, kind, eta_best, mean_metric, std_metric = report.rows[0]
    values = [v for (_, _, _, v) in report.cells]
    assert len(set(values)) == 1  # metric really is constant across seeds
    assert std_metric == pytest.approx(0.0, abs=1e-15)
    assert mean_metric == pytest.approx(values[0], rel=1e-15)


def test_best_eta_skips_nan_means(monkeypatch, tmp_path, capsys):
    from dpclip.harness import commands

    # calls run eta-major over two seeds: eta 0.1 gives NaN, 0.3 and 1.0 tie
    values = iter([math.nan, math.nan, 1.0, 2.0, 2.0, 1.0])
    monkeypatch.setattr(commands, "_metric_value", lambda *args: next(values))
    out = tmp_path / "sweep.csv"
    spec = _tiny_spec("sweep-clip", out, clip_candidates=("p50",), eta_grid=(0.1, 0.3, 1.0))
    _, _, eta_best, mean_best, _ = cmd_sweep_clip(spec).rows[0]
    assert (eta_best, mean_best) == (0.3, 1.5)

    monkeypatch.setattr(commands, "_metric_value", lambda *args: math.nan)
    with pytest.raises(SpecValidationError, match="NaN mean metric at clip norm"):
        cmd_sweep_clip(spec)
    out.unlink()
    args = ["sweep-clip", "--synthetic", "planted", "--n", "60", "--dim", "3",
            "--iterations", "5", "--batch", "10", "--clip-candidates", "2.5",
            "--out", str(out)]
    assert main(args) == 1
    assert "at clip norm 2.5" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_infinite_tau_requires_no_noise(tmp_path):
    spec = _tiny_spec("sweep-clip", tmp_path / "x.csv", clip_candidates=("inf",))
    with pytest.raises(SpecValidationError):
        cmd_sweep_clip(spec)


def test_sweep_no_noise_inf_matches_plain_sgd_oracle(tmp_path):
    out = tmp_path / "plain.csv"
    spec = _tiny_spec(
        "sweep-clip", out, no_noise=True, clip_candidates=("inf",),
        seeds=(0,), eta_grid=(0.3,),
    )
    report = cmd_sweep_clip(spec)

    # independent oracle: replicate the run from the problem surface only
    rng = np.random.default_rng([spec.master_seed, 11])
    ds = planted_logistic_dataset(
        spec.n, spec.dim, spec.classes, rng, spec.norm_low, spec.norm_high
    ).with_bias()
    prob = logistic_problem(ds, spec.classes)
    _, f_star = reference_minimum(
        prob, np.zeros(prob.dim),
        [0.01, 0.03, 0.1, 0.3, 1.0, 3.0], 10 * spec.iterations,
    )
    run_rng = np.random.default_rng(0)
    t_hat = int(run_rng.integers(spec.iterations))
    w = np.zeros(prob.dim)
    w_priv = w
    for t in range(spec.iterations):
        if t == t_hat:
            w_priv = w.copy()
        mask = run_rng.random(prob.n) < spec.batch / prob.n
        idx = np.flatnonzero(mask)
        grads = prob.grads_at(w, idx)
        w = w - 0.3 * (grads.sum(axis=0) / spec.batch)
    oracle = prob.objective(w_priv) - f_star
    assert report.rows[0][3] == pytest.approx(oracle, rel=1e-12, abs=1e-15)


def test_sweep_accuracy_metric_with_csv_split(tmp_path):
    rng = np.random.default_rng(41)
    ds = planted_logistic_dataset(150, 3, 2, rng, 0.5, 2.0)
    rows = [
        ",".join([repr(float(v)) for v in f] + [str(int(l))])
        for f, l in zip(ds.features, ds.labels)
    ]
    train_path, test_path = tmp_path / "train.csv", tmp_path / "test.csv"
    train_path.write_text("\n".join(rows[:100]) + "\n", encoding="utf-8")
    test_path.write_text("\n".join(rows[100:]) + "\n", encoding="utf-8")
    spec = _tiny_spec(
        "sweep-clip", tmp_path / "acc.csv", synthetic=None, csv=str(train_path),
        test_csv=str(test_path), clip_candidates=("p0",), batch=25.0,
    )
    report = cmd_sweep_clip(spec)
    assert report.metric_kind == "accuracy"
    assert all(0.0 <= v <= 1.0 for (_, _, _, v) in report.cells)
    # separable data with mild noise should classify most held-out points
    assert report.rows[0][3] >= 0.6


def test_rnmm_infinite_epsilon_selects_g_min(tmp_path):
    out = tmp_path / "rnmm.csv"
    spec = _tiny_spec("rnmm-pipeline", out, eps_rnmm=math.inf)
    report = cmd_rnmm_pipeline(spec)
    assert report["tau_selected"] == report["tau_oracle"]
    for field in ("tau_selected", "tau_oracle", "metric_with", "metric_without"):
        assert field in report
    header = out.read_text(encoding="utf-8").split("\n")[0]
    assert header == (
        "eps_total,eps_rnmm,eps_dpsgd,tau_selected,tau_oracle,"
        "metric_with,metric_without"
    )


def test_rnmm_invalid_split(tmp_path):
    spec = _tiny_spec("rnmm-pipeline", tmp_path / "x.csv", eps_rnmm=2.5)
    with pytest.raises(SpecValidationError):
        cmd_rnmm_pipeline(spec)
    spec = _tiny_spec("rnmm-pipeline", tmp_path / "x.csv", eps_rnmm=None)
    with pytest.raises(SpecValidationError):
        cmd_rnmm_pipeline(spec)


def test_phi_scaling_rows_and_phi_column(tmp_path):
    out = tmp_path / "phi.csv"
    spec = _tiny_spec(
        "phi-scaling", out, synthetic="heavy", n_list=(150, 600), tail_k=2.0,
        moment_k=2.0, dim=3, classes=2, iterations=30, batch=15.0,
        append_bias=False,
    )
    rows = cmd_phi_scaling(spec)
    assert len(rows) == 2
    budget = PrivacyBudget(spec.epsilon, spec.delta, spec.nu)
    for n, phi, k, _risk in rows:
        d = spec.classes * spec.dim  # parameter count of the softmax model
        assert phi == compute_phi(n, d, budget)
        assert k == 2.0


def test_bias_oracle_cli_and_determinism(tmp_path):
    out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    args = ["bias-oracle", "--count", "25", "--master-seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # rows with tau above every atom norm have zero exact bias and lemma bound
    rows = out1.read_text(encoding="utf-8").strip().split("\n")[1:]
    above = [r.split(",") for r in rows if float(r.split(",")[2]) > 0]
    fractions_above_max = [r for r in above if float(r[3]) == 0.0 and float(r[4]) == 0.0]
    assert fractions_above_max  # the 1.1 * max grid point produces such rows


def test_lower_bound_demo_runs_and_degenerate(tmp_path):
    out = tmp_path / "lb.csv"
    spec = _tiny_spec(
        "lower-bound-demo", out, dim=2, n=200, qv_p=0.2, moment_k=2.0,
        iterations=30, batch=20.0, synthetic=None,
    )
    rows = cmd_lower_bound_demo(spec)
    assert len(rows) == 2
    assert all(r[3] == 0 for r in rows)

    # a tiny dataset with small p has a fair chance of drawing only zeros;
    # the chosen master seed is one such case
    degenerate = None
    for seed in range(50):
        probe = _tiny_spec(
            "lower-bound-demo", tmp_path / f"lb{seed}.csv", dim=2, n=4,
            qv_p=0.01, moment_k=2.0, iterations=5, batch=2.0,
            synthetic=None, master_seed=seed,
        )
        rows = cmd_lower_bound_demo(probe)
        if rows[0][3] == 1:
            degenerate = rows
            break
    assert degenerate is not None
    assert all(r[1] == 0.0 for r in degenerate)


def test_cli_config_file_equivalent_to_flags(tmp_path):
    out_flags = tmp_path / "flags.csv"
    out_config = tmp_path / "config.csv"
    flags = [
        "sweep-clip", "--synthetic", "planted", "--n", "100", "--dim", "3",
        "--classes", "2", "--norm-low", "0.5", "--norm-high", "2.0",
        "--append-bias", "--iterations", "20", "--batch", "10",
        "--seeds", "0,1", "--eta-grid", "0.1,0.3", "--clip-candidates",
        "p0,p100", "--epsilon", "2", "--master-seed", "7",
        "--out", str(out_flags),
    ]
    assert main(flags) == 0
    config = {
        "synthetic": "planted", "n": 100, "dim": 3, "classes": 2,
        "norm_low": 0.5, "norm_high": 2.0, "append_bias": True,
        "iterations": 20, "batch": 10, "seeds": [0, 1],
        "eta_grid": [0.1, 0.3], "clip_candidates": ["p0", "p100"],
        "epsilon": 2, "master_seed": 7, "out": str(out_config),
    }
    config_path = tmp_path / "spec.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["sweep-clip", "--config", str(config_path)]) == 0
    flag_bytes = out_flags.read_bytes()
    config_bytes = out_config.read_bytes()
    assert flag_bytes == config_bytes


def test_cli_maps_oracle_failures_to_exit_2(monkeypatch, tmp_path):
    from dpclip.harness import commands
    from dpclip.harness.spec import OracleFailure

    def boom(spec):
        raise OracleFailure("forced")

    monkeypatch.setitem(commands.COMMANDS, "bias-oracle", boom)
    assert main(["bias-oracle", "--count", "1", "--out", str(tmp_path / "x.csv")]) == 2


def test_cli_exit_codes(tmp_path):
    # validation error: a sweep needs an output path
    assert main(["sweep-clip", "--synthetic", "planted"]) == 1
    # validation error: unparseable flag value
    assert main(["bias-oracle", "--count", "xyz", "--out", "b.csv"]) == 1
    # i/o error: missing input dataset
    assert (
        main(
            ["sweep-clip", "--csv", str(tmp_path / "missing.csv"),
             "--out", str(tmp_path / "o.csv")]
        )
        == 3
    )


@pytest.mark.parametrize(
    "bad_row, cause",
    [("nan,1.0,1", "non-finite feature in row 1"), ("1e308,1e308,1", "must be finite")],
    ids=["nan-feature", "overflowing-norm"],
)
def test_cli_rejects_non_finite_input_before_running(tmp_path, capsys, bad_row, cause):
    # a NaN feature, or a finite row whose Lipschitz constant overflows, fails
    # at set-up with exit code 1 and writes no result
    train = tmp_path / "train.csv"
    train.write_text("0.5,-1.0,0\n" + bad_row + "\n2.0,0.25,1\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    args = ["sweep-clip", "--csv", str(train), "--batch", "2", "--out", str(out)]
    for candidates in ("1.0", "p0,p100"):
        assert main(args + ["--clip-candidates", candidates]) == 1
        assert cause in capsys.readouterr().err
        assert not out.exists()
