"""Tests for the experiment commands and CLI plumbing."""

import errno
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dpclip.harness import commands
from dpclip.harness.cli import COMMAND_FIELDS, build_parser, main
from dpclip.harness.commands import (
    COMMANDS,
    cmd_lower_bound_demo,
    cmd_phi_scaling,
    cmd_rnmm_pipeline,
    cmd_sweep_clip,
)
from dpclip.harness.spec import ExperimentSpec, SpecValidationError, clip_candidate
from dpclip.lipschitz import LipschitzProfile, percentile
from dpclip.losses import (
    heavy_tailed_logistic_dataset,
    logistic_problem,
    planted_logistic_dataset,
)
from dpclip.optimizer import run_dp_sgd
from dpclip.privacy import PrivacyBudget, compute_phi, report_noisy_max

PROFILE = LipschitzProfile(g=np.array([1.0, 2.0, 4.0, 8.0]))
# two CSVs of different widths
DATA = Path(__file__).parent / "data"


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


def test_clip_candidate():
    infinite = ("inf", "+inf", "Infinity", "1e999")
    assert clip_candidate("p0") == ("percentile", 0.0)
    assert clip_candidate("p100") == ("percentile", 100.0)
    assert [percentile(PROFILE, q) for q in (0.0, 100.0)] == [1.0, 8.0]
    assert clip_candidate("2.5") == ("absolute", 2.5)
    # every token that parses to an infinite clip norm is the sentinel
    assert [clip_candidate(t) for t in infinite] == [("infinite", math.inf)] * len(infinite)
    for bad in ("pxyz", "-1.0", "nan", "p150"):
        with pytest.raises(SpecValidationError):
            clip_candidate(bad)
    # an empty candidate list fails when the spec is built
    with pytest.raises(SpecValidationError):
        ExperimentSpec(command="sweep-clip", out="x.csv", clip_candidates=())


def test_spec_validation():
    with pytest.raises(SpecValidationError):
        ExperimentSpec(command="sweep-clip", out="x.csv", seeds=())
    with pytest.raises(SpecValidationError):
        ExperimentSpec(command="sweep-clip", out="x.csv", seeds=(-1,))
    with pytest.raises(SpecValidationError):
        ExperimentSpec(command="sweep-clip", out="")
    # every rule that reads only flag values holds for every command's spec
    for bad, message in (
        (dict(clip_candidates=()), "clip candidate list must be nonempty"),
        (dict(clip_candidates=("p0", "p101")), r"percentile must lie in \[0, 100\], got 101.0"),
        (dict(clip_candidates=("inf",)), "an infinite clip norm requires --no-noise"),
        (dict(rnmm_clamp=0.0), "rnmm clamp bound must be positive, got 0.0"),
        (dict(n_list=()), "phi-scaling requires a nonempty n_list"),
        (dict(moment_k=1.0), "moment order k must exceed 1"),
        (dict(count=0), "count must be >= 1"),
        (dict(p_list=()), "bias-oracle requires a nonempty p_list"),
        (dict(p_list=(2.0, 1.0)), "all moment orders p must exceed 1"),
    ):
        for command in COMMANDS:
            with pytest.raises(SpecValidationError, match=f"^{message}$"):
                ExperimentSpec(command=command, out="x.csv", **bad)
    # a direct call that names two data sources ran on the CSV alone
    with pytest.raises(SpecValidationError, match="give --csv or --synthetic, not both"):
        ExperimentSpec(command="sweep-clip", out="x.csv", csv="train.csv", synthetic="planted")
    # DP-SGD controls fail at construction, not after the reference oracle
    for bad in (dict(iterations=0), dict(batch=0.0), dict(batch=-5.0),
                dict(eta_grid=()), dict(eta_grid=(0.1, -0.1))):
        with pytest.raises(SpecValidationError):
            ExperimentSpec(command="sweep-clip", out="x.csv", **bad)
    # each value must have its field's declared type, named in the message
    for bad in (dict(iterations=2.5), dict(seeds=(True,)), dict(master_seed=1.5),
                dict(batch="10"), dict(n_list=(100.0,)), dict(synthetic="uniform"),
                dict(append_bias=1), dict(clip_candidates="p0"), dict(eps_rnmm="1"),
                dict(n=60.5), dict(classes=2.5), dict(dim=3.0), dict(seeds=(1.5,))):
        (name,) = bad
        with pytest.raises(SpecValidationError, match=f"^{name} must be "):
            ExperimentSpec(command="sweep-clip", out="x.csv", **bad)
    # no float may be infinite, in a scalar or in a tuple, named in the message
    for bad in (dict(eta_grid=(0.1, math.inf)), dict(growth_c=math.inf),
                dict(moment_k=math.inf), dict(norm_high=math.inf),
                dict(rnmm_clamp=math.inf), dict(epsilon=math.inf),
                dict(p_list=(2.0, math.inf)), dict(batch=-math.inf)):
        (name,) = bad
        with pytest.raises(SpecValidationError, match=f"^{name} must be finite, got "):
            ExperimentSpec(command="sweep-clip", out="x.csv", **bad)
    with pytest.raises(SpecValidationError, match="--no-noise runs without noise"):
        ExperimentSpec(command="sweep-clip", out="x.csv", epsilon=math.inf)
    # except where inf is the field's sentinel
    spec = ExperimentSpec(command="sweep-clip", out="x.csv", tail_k=math.inf, eps_rnmm=math.inf)
    assert (spec.tail_k, spec.eps_rnmm) == (math.inf, math.inf)
    # an int is a float, a list a tuple and a numpy integer an int
    spec = ExperimentSpec(command="sweep-clip", out="x.csv", batch=10, seeds=[np.int64(2)],
                          eps_rnmm=None)
    assert (spec.batch, spec.seeds) == (10.0, (2,))
    assert type(spec.batch) is float and type(spec.seeds[0]) is int


def _collect_metrics(monkeypatch):
    """Record every per-run metric the harness computes, in call order."""
    from dpclip.harness import commands

    values = []
    metric_value = commands._metric_value

    def recording(*args):
        values.append(metric_value(*args))
        return values[-1]

    monkeypatch.setattr(commands, "_metric_value", recording)
    return values


def test_sweep_row_cardinality_and_schema(monkeypatch, tmp_path):
    values = _collect_metrics(monkeypatch)
    out = tmp_path / "sweep.csv"
    spec = _tiny_spec("sweep-clip", out, clip_candidates=("p0", "p100"))
    report = cmd_sweep_clip(spec)
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "tau,tau_kind,eta_best,mean_metric,std_metric"
    assert len(lines) == 3  # header + one row per candidate
    assert report.metric_kind == "suboptimality"
    assert len(values) == 2 * 2 * 2  # taus x etas x seeds


def test_sweep_constant_metric_has_zero_std(monkeypatch, tmp_path):
    # T = 1 always returns w0, so the metric is constant across seeds
    values = _collect_metrics(monkeypatch)
    out = tmp_path / "const.csv"
    spec = _tiny_spec(
        "sweep-clip", out, no_noise=True, iterations=1, clip_candidates=("p50",),
        seeds=(0, 1, 2), eta_grid=(0.1,),
    )
    report = cmd_sweep_clip(spec)
    tau, kind, eta_best, mean_metric, std_metric = report.rows[0]
    assert len(set(values)) == 1  # metric really is constant across seeds
    assert std_metric == pytest.approx(0.0, abs=1e-15)
    assert mean_metric == pytest.approx(values[0], rel=1e-15)


@pytest.mark.parametrize("metric", ["suboptimality", "train_loss", "accuracy"])
def test_best_eta_skips_nan_means(metric, monkeypatch, tmp_path, capsys):
    from dpclip.harness import commands

    if metric == "accuracy":
        train, test = _split_csvs(tmp_path)
        data = dict(synthetic=None, csv=str(train), test_csv=str(test), batch=25.0)
        flags = ["--csv", str(train), "--test-csv", str(test), "--batch", "25"]
    elif metric == "train_loss":
        # CSV labels carry no certificate that inf f = 0: the metric is f itself
        train, _ = _split_csvs(tmp_path)
        data = dict(synthetic=None, csv=str(train), batch=25.0)
        flags = ["--csv", str(train), "--batch", "25"]
    else:
        data = {}
        flags = ["--synthetic", "planted", "--n", "60", "--dim", "3", "--batch", "10"]
    # calls run eta-major over two seeds, so the means are NaN, 0.5, 0.25, 0.5,
    # 0.25 and NaN: a suboptimality or training loss takes the first lowest,
    # an accuracy the first highest, and argmin or argmax alone would take the
    # leading NaN
    values = iter([math.nan, math.nan, 0.0, 1.0, 0.5, 0.0, 1.0, 0.0, 0.0, 0.5, math.nan, 0.0])
    monkeypatch.setattr(commands, "_metric_value", lambda *args: next(values))
    out = tmp_path / "sweep.csv"
    spec = _tiny_spec(
        "sweep-clip", out, clip_candidates=("p50",),
        eta_grid=(0.1, 0.3, 1.0, 3.0, 10.0, 30.0), **data,
    )
    report = cmd_sweep_clip(spec)
    assert report.metric_kind == metric
    assert capsys.readouterr().out.endswith(f"({metric})\n")
    _, _, eta_best, mean_best, std_best = report.rows[0]
    if metric != "accuracy":
        assert (eta_best, mean_best, std_best) == (1.0, 0.25, 0.25)
    else:
        assert (eta_best, mean_best, std_best) == (0.3, 0.5, 0.5)

    monkeypatch.setattr(commands, "_metric_value", lambda *args: math.nan)
    with pytest.raises(SpecValidationError, match="NaN mean metric at clip norm"):
        cmd_sweep_clip(spec)
    out.unlink()
    args = ["sweep-clip", *flags, "--iterations", "5", "--clip-candidates", "2.5",
            "--out", str(out)]
    assert main(args) == 1
    assert "at clip norm 2.5" in capsys.readouterr().err
    assert not out.exists()


# The work no bad input may reach: the non-private oracle, which no command
# runs, the DP-SGD runs and the bias oracle, then the data, made or read. A
# rule that needs the data may make or read it first.
_WORK = ("reference_minimum", "run_dp_sgd", "clipping_bias_exact", "sample_Qv_many",
         "planted_logistic_dataset", "heavy_tailed_logistic_dataset", "load_dataset_csv")
_ORACLE, _DATA = _WORK[:1], _WORK[4:]
# the files each fail-fast case finds in its working directory
_FILES = {
    "train.csv": "0.5,-1.0,0\n1.0,2.0,1\n2.0,0.25,1\n",
    "test.csv": "0.5,-1.0,0\n1.0,2.0,1\n",
    "blocker": "",
}


def _forbid_work(monkeypatch, names=_WORK):
    def never(*args, **kwargs):
        raise AssertionError("expensive work ran before validation")

    for name in names:
        monkeypatch.setattr(commands, name, never)


def _usage(prog, error):
    """argparse's usage lines, then its error line (a pattern)."""
    return re.compile(rf"usage: {prog} .*\n{prog}: error: {error}\n", re.S)


def _io_error(code, path):
    return f"i/o error: [Errno {code}] {os.strerror(code)}: '{path}'\n"


@pytest.fixture
def fails_fast(monkeypatch, tmp_path, capsys, private_cache_home):
    """``check(argv, code, err, allow)``: ``main`` exits with ``code`` and
    stderr ``err`` (the text, or a pattern all of it matches) before any of
    ``_WORK`` but ``allow`` runs, and writes no output and no cache entry it
    was not allowed. It runs in a directory of ``_FILES``; in argv and err,
    {tmp} is that directory and {data} is ``tests/data``."""
    monkeypatch.chdir(tmp_path)
    for name, text in _FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    out = tmp_path / "x.csv"

    def fill(text):
        return text.replace("{tmp}", str(tmp_path)).replace("{data}", str(DATA))

    def check(argv, code, err, allow=()):
        _forbid_work(monkeypatch, [name for name in _WORK if name not in allow])
        # a later --out in argv overrides this one
        assert main([argv[0], "--out", str(out), *map(fill, argv[1:])]) == code
        stderr = capsys.readouterr().err
        assert err.fullmatch(stderr) if isinstance(err, re.Pattern) else stderr == fill(err), stderr
        assert not out.exists()
        assert "load_dataset_csv" in allow or not private_cache_home.exists()

    return check


_PLANTED_60 = ["--synthetic", "planted", "--n", "60", "--dim", "3", "--iterations", "10",
               "--batch", "10"]
_SCHEDULE_ZERO = ("validation error: schedule clip norm is 0.0 at phi = {}: "
                  "phi^2 is out of float range (epsilon too small)\n")


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["sweep-clip", "--clip-candidates", "p0,inf"], 1,
         "validation error: an infinite clip norm requires --no-noise\n"),
        (["sweep-clip", "--clip-candidates", "nan", "--no-noise"], 1,
         "validation error: clip candidates must be positive: 'nan'\n"),
        (["rnmm-pipeline", "--eps-rnmm", "inf", "--rnmm-clamp", "nan"], 1,
         "validation error: rnmm clamp bound must be positive, got nan\n"),
        (["rnmm-pipeline", "--eps-rnmm=-inf"], 1,
         "validation error: need 0 < eps_rnmm < eps_total\n"),
        (["rnmm-pipeline", "--eps-rnmm", "2.5"], 1,
         "validation error: need 0 < eps_rnmm < eps_total\n"),
        (["rnmm-pipeline"], 1, "validation error: rnmm-pipeline requires --eps-rnmm\n"),
        (["phi-scaling", "--synthetic", "heavy", "--n-list", "600,20", "--batch", "30"], 1,
         "validation error: batch 30.0 exceeds dataset size 20\n"),
        (["phi-scaling", "--synthetic", "heavy", "--n-list", "150", "--moment-k", "0"], 1,
         "validation error: moment order k must exceed 1\n"),
        (["lower-bound-demo", "--dim", "2", "--n", "10", "--batch", "50"], 1,
         "validation error: batch 50.0 exceeds dataset size 10\n"),
        (["bias-oracle", "--p-list", "2,nan"], 1,
         "validation error: all moment orders p must exceed 1\n"),
        # a tiny epsilon underflows (n eps)^2 to 0, or overflows sigma^2 or phi^2
        (["sweep-clip", "--synthetic", "planted", "--n", "120", "--epsilon", "1e-300"], 1,
         "validation error: epsilon = 1e-300 is too small: (n * epsilon)^2 underflows to 0\n"),
        (["sweep-clip", "--synthetic", "planted", "--n", "120", "--epsilon", "1e-160"], 1,
         re.compile(r"validation error: noise variance is inf at epsilon = 1e-160,"
                    r" tau = \S+\n")),
        (["phi-scaling", "--synthetic", "heavy", "--n-list", "150", "--dim", "4",
          "--append-bias", "--epsilon", "1e-160"], 1, _SCHEDULE_ZERO.format("8.761e+158")),
        # the CLI's default sizes, where only the later n fails: the earlier
        # one must not run first
        (["phi-scaling", "--synthetic", "heavy", "--n-list", "2000,150", "--epsilon", "1e-155",
          "--dim", "20"], 1, _SCHEDULE_ZERO.format("1.752e+154")),
        (["sweep-clip", "--csv", "{data}/two_features.csv",
          "--test-csv", "{data}/three_features.csv"], 1,
         "validation error: train/test feature dimensions differ\n"),
        (["sweep-clip"], 1,
         "validation error: provide --csv PATH or --synthetic {planted,heavy}\n"),
        (["sweep-clip", "--synthetic", "planted", "--n", "120", "--batch", "121"], 1,
         "validation error: batch 121.0 exceeds dataset size 120\n"),
        (["sweep-clip", "--csv", "{data}/three_features.csv", "--batch", "20"], 1,
         "validation error: batch 20.0 exceeds dataset size 3\n"),
        (["sweep-clip", "--clip-candidates", "p50,abc"], 1,
         "validation error: bad clip candidate: 'abc'\n"),
        # an empty --out is no output path
        (["sweep-clip", "--synthetic", "planted", "--out", ""], 1,
         "validation error: an output path is required\n"),
        # usage errors exit 1: 2 is the oracle-failure code
        (["bias-oracle", "--count", "xyz"], 1,
         _usage("dpclip bias-oracle", "argument --count: invalid int value: 'xyz'")),
        (["nosuchcmd"], 1, _usage("dpclip", "argument command: invalid choice: 'nosuchcmd'.*")),
        (["sweep-clip", "--csv", "{tmp}/missing.csv"], 3,
         _io_error(errno.ENOENT, "{tmp}/missing.csv")),
    ],
    ids=["sweep-inf-without-no-noise", "sweep-nan-no-noise", "rnmm-clamp-nan",
         "rnmm-eps-minus-inf", "rnmm-eps-above-total", "rnmm-without-eps",
         "phi-batch-over-min-n", "phi-moment-k-zero", "lower-bound-batch-over-n",
         "bias-oracle-p-nan", "sweep-epsilon-underflow", "sweep-epsilon-sigma-overflow",
         "phi-epsilon-phi-overflow", "phi-later-n-fails-first", "sweep-csv-widths-differ",
         "sweep-no-data-source", "sweep-batch-over-n", "sweep-csv-batch-over-rows",
         "sweep-bad-clip-candidate", "sweep-empty-out", "bias-oracle-count-not-an-int",
         "unknown-command", "sweep-missing-csv"],
)
@pytest.mark.filterwarnings("ignore:phi = .* >= 1")  # a tiny epsilon makes phi huge
def test_invalid_input_fails_before_any_run(fails_fast, argv, code, err):
    fails_fast(argv, code, err, allow=_DATA)


@pytest.mark.parametrize(
    "argv, err",
    [
        (["sweep-clip", *_PLANTED_60, "--epsilon", "1e-300"],
         "validation error: epsilon = 1e-300 is too small: (n * epsilon)^2 underflows to 0\n"),
        (["phi-scaling", "--epsilon", "1e-160"], _SCHEDULE_ZERO.format("5.257e+158")),
        (["lower-bound-demo", "--epsilon", "1e-160"], _SCHEDULE_ZERO.format("7.587e+157")),
    ],
    ids=["sweep-clip", "phi-scaling", "lower-bound-demo"],
)
@pytest.mark.filterwarnings("ignore:phi = .* >= 1")
def test_cli_tiny_epsilon_exits_1_naming_epsilon(fails_fast, argv, err):
    fails_fast(argv, 1, err, allow=("sample_Qv_many", *_DATA))


@pytest.mark.parametrize(
    "argv, err",
    [
        (["sweep-clip", *_PLANTED_60, "--eta-grid", "0.1,inf"],
         "eta_grid must be finite, got (0.1, inf)"),
        (["rnmm-pipeline", *_PLANTED_60, "--eps-rnmm", "0.5", "--rnmm-clamp", "inf"],
         "rnmm_clamp must be finite, got inf"),
        (["phi-scaling", "--n-list", "150", "--dim", "3", "--iterations", "10",
          "--batch", "15", "--moment-k", "inf"], "moment_k must be finite, got inf"),
        (["bias-oracle", "--count", "2", "--p-list", "2,inf"],
         "p_list must be finite, got (2.0, inf)"),
        (["lower-bound-demo", "--dim", "2", "--n", "60", "--iterations", "10",
          "--batch", "10", "--growth-c", "inf"], "growth_c must be finite, got inf"),
    ],
    ids=["sweep-clip-eta_grid", "rnmm-pipeline-rnmm_clamp", "phi-scaling-moment_k",
         "bias-oracle-p_list", "lower-bound-demo-growth_c"],
)
def test_cli_infinite_value_exits_1_before_any_work(fails_fast, argv, err):
    # each of these ran to exit 0 with a NaN or wrong row, or spent the whole
    # run before failing on a symptom, while the spec took the infinite value
    fails_fast(argv, 1, f"validation error: {err}\n")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["bias-oracle", "--count", "2", "--p-list", ""], "bias-oracle requires a nonempty p_list"),
        (["lower-bound-demo", "--dim", "-2", "--n", "60", "--iterations", "10", "--batch", "10"],
         "lower-bound-demo requires an even dim >= 2, got -2"),
        (["lower-bound-demo", "--dim", "0", "--n", "60", "--iterations", "10", "--batch", "10"],
         "lower-bound-demo requires an even dim >= 2, got 0"),
        (["phi-scaling", "--n-list", ""], "phi-scaling requires a nonempty n_list"),
        (["bias-oracle", "--count", "0"], "count must be >= 1"),
        (["sweep-clip", *_PLANTED_60, "--eta-grid", "0.3", "--seeds", "0,0,1"],
         "seeds must be distinct; seed 0 is repeated"),
        (["sweep-clip", "--csv", "{data}/three_features.csv", "--clip-candidates", "p0,p101"],
         "percentile must lie in [0, 100], got 101.0"),
        (["sweep-clip", "--csv", "{data}/three_features.csv", "--clip-candidates", "pxyz"],
         "bad percentile token: 'pxyz'"),
        (["sweep-clip", "--csv", "{data}/three_features.csv", "--clip-candidates", "-1"],
         "clip candidates must be positive: '-1'"),
        (["sweep-clip", "--csv", "{data}/three_features.csv", "--clip-candidates", "p0,inf"],
         "an infinite clip norm requires --no-noise"),
        (["rnmm-pipeline", "--synthetic", "planted", "--eps-rnmm", "0.5", "--rnmm-clamp", "0"],
         "rnmm clamp bound must be positive, got 0.0"),
        (["sweep-clip", "--synthetic", "planted", "--n", "100", "--batch", "200"],
         "batch 200.0 exceeds dataset size 100"),
        # the smallest size is checked before the first size's data is made
        (["phi-scaling", "--n-list", "600,20", "--batch", "30"],
         "batch 30.0 exceeds dataset size 20"),
    ],
    ids=["bias-oracle-empty-p-list", "lower-bound-negative-dim", "lower-bound-zero-dim",
         "phi-empty-n-list", "bias-oracle-zero-count", "sweep-repeated-seed",
         "sweep-csv-percentile-over-100", "sweep-csv-bad-percentile-token",
         "sweep-csv-negative-candidate", "sweep-csv-inf-without-no-noise",
         "rnmm-zero-clamp", "sweep-synthetic-batch-over-n", "phi-batch-over-min-n"],
)
def test_cli_empty_or_out_of_range_field_exits_1_before_any_work(fails_fast, argv, err):
    # an empty --p-list ran 0 checks and passed; --dim -2 failed inside numpy
    # and --dim 0 ran on an empty instance; a repeated seed was run and
    # averaged twice; a bad clip candidate or clamp, or a batch above the
    # synthetic n, failed only after the data was generated, or the CSV
    # parsed and its cache entry written
    fails_fast(argv, 1, f"validation error: {err}\n")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["sweep-clip", "--synthetic", "planted", "--epsilon", "0"],
         "epsilon must be positive, got 0.0"),
        (["rnmm-pipeline", "--synthetic", "planted", "--epsilon", "-1"],
         "epsilon must be positive, got -1.0"),
        (["lower-bound-demo", "--delta", "0"], "delta must be in (0, 1), got 0.0"),
        (["sweep-clip", "--csv", "{data}/three_features.csv", "--delta", "2"],
         "delta must be in (0, 1), got 2.0"),
    ],
    ids=["sweep-zero-epsilon", "rnmm-negative-epsilon", "lower-bound-zero-delta",
         "sweep-csv-delta-above-1"],
)
def test_cli_bad_privacy_budget_exits_1_before_any_data(fails_fast, argv, err):
    # these failed only at noise calibration, after the data was generated,
    # or the CSV parsed and its cache entry written
    fails_fast(argv, 1, f"validation error: {err}\n")


@pytest.mark.parametrize("command", ["sweep-clip", "rnmm-pipeline"])
def test_cli_test_csv_without_csv_exits_1_before_any_work(fails_fast, command):
    # synthetic data has no held-out split: the flag was ignored, and the run
    # wrote suboptimality where held-out accuracy was asked for
    argv = [command, "--synthetic", "planted", "--n", "60", "--dim", "2", "--iterations", "5",
            "--batch", "10", "--eta-grid", "0.3", "--test-csv", "test.csv"]
    fails_fast(argv, 1, "validation error: test_csv is a held-out split of --csv data;"
                        " give --csv too\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-clip", "--synthetic", "planted", "--n", "2000", "--dim", "20",
         "--iterations", "300", "--batch", "100"],
        ["sweep-clip", "--csv", "train.csv"],
        ["rnmm-pipeline", "--synthetic", "planted", "--eps-rnmm", "0.5"],
        ["phi-scaling"],
        ["bias-oracle"],
        ["lower-bound-demo"],
    ],
    ids=["sweep-synthetic", "sweep-csv", "rnmm-pipeline", "phi-scaling", "bias-oracle",
         "lower-bound-demo"],
)
@pytest.mark.parametrize(
    "out, code, culprit",
    [("{tmp}", errno.EISDIR, "{tmp}"), ("{tmp}/blocker/sub/x.csv", errno.ENOTDIR, "{tmp}/blocker")],
    ids=["a-directory", "under-a-file"],
)
def test_cli_unwritable_out_exits_3_before_any_work(fails_fast, argv, out, code, culprit):
    # the CSV is written last, so an --out that is a directory, or that lies
    # under a file, failed only after the whole run
    fails_fast([*argv, "--out", out], 3, _io_error(code, culprit))


def test_cli_out_in_missing_directories_is_written(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for out in ("b.csv", "new/dirs/b.csv", str(tmp_path / "other" / "b.csv")):
        assert main(["bias-oracle", "--count", "2", "--out", out]) == 0
        assert (tmp_path / out).is_file()


def test_lower_bound_demo_has_no_sampling_oracle(tmp_path):
    # the command checks no property of the instance by Monte Carlo: a 4-sigma
    # band on fresh sampler draws misses on about one master seed in 20,000,
    # this one among them, and turned a valid run into exit 2
    out = tmp_path / "lb.csv"
    assert main(["lower-bound-demo", "--master-seed", "19585", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "seed,risk,phi_power_scale,degenerate"
    assert len(lines) == 2


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
    # planted labels are separable, so inf f = 0 and the suboptimality is f
    oracle = prob.objective(w_priv)
    assert report.rows[0][3] == pytest.approx(oracle, rel=1e-12, abs=1e-15)


@pytest.mark.filterwarnings("ignore::dpclip.privacy.PrivacyRegimeWarning")
@pytest.mark.parametrize(
    "command, kw",
    [
        ("sweep-clip", dict(clip_candidates=("p0", "p100"))),
        ("phi-scaling", dict(synthetic="heavy", n_list=(150, 600), dim=3, classes=2,
                             iterations=30, batch=15.0, append_bias=False)),
        ("rnmm-pipeline", dict(eps_rnmm=1.0)),
    ],
    ids=["sweep-clip", "phi-scaling", "rnmm-pipeline"],
)
def test_synthetic_rerun_writes_the_same_bytes_and_no_cache_entry(
    monkeypatch, tmp_path, private_cache_home, command, kw
):
    # synthetic runs are scored against the certified bound inf f = 0: no
    # reference oracle runs, nothing is read from or written to the cache,
    # and a second run writes the first run's bytes
    _forbid_work(monkeypatch, _ORACLE)
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    COMMANDS[command](_tiny_spec(command, cold, **kw))
    assert not private_cache_home.exists()
    COMMANDS[command](_tiny_spec(command, warm, **kw))
    assert warm.read_bytes() == cold.read_bytes()
    assert not private_cache_home.exists()


def test_sweep_shares_draws_and_writes_the_bytes_of_one_run_per_call(monkeypatch, tmp_path):
    # every (tau, eta, seed) run goes into one run_dp_sgd call, where runs of
    # a seed share their draws; at tau = 1e-200 sigma_sq underflows to 0, so
    # those runs draw no noise next to the noisy runs of the same seeds
    from dpclip.harness import commands

    argv = ["sweep-clip", "--synthetic", "planted", "--n", "600", "--dim", "4",
            "--iterations", "30", "--batch", "100", "--epsilon", "0.5",
            "--seeds", "0,1,2,3", "--eta-grid", "0.1,0.3,1.0",
            "--clip-candidates", "1e-200,p0,p100"]
    run = commands.run_dp_sgd
    calls = []

    def grid(problem, configs):
        calls.append(configs)
        return run(problem, configs)

    monkeypatch.setattr(commands, "run_dp_sgd", grid)
    grouped, alone = tmp_path / "grouped.csv", tmp_path / "alone.csv"
    assert main(argv + ["--out", str(grouped)]) == 0
    (configs,) = calls
    assert len(configs) == 3 * 3 * 4
    sigma_sqs = sorted({c.sigma_sq for c in configs})
    assert len(sigma_sqs) == 3 and sigma_sqs[0] == 0.0

    monkeypatch.setattr(
        commands, "run_dp_sgd", lambda problem, configs: [run(problem, c) for c in configs]
    )
    assert main(argv + ["--out", str(alone)]) == 0
    assert grouped.read_bytes() == alone.read_bytes()


def _split_csvs(tmp_path):
    """Train (100 rows) and test (50 rows) CSVs of one planted 2-class problem."""
    rng = np.random.default_rng(41)
    ds = planted_logistic_dataset(150, 3, 2, rng, 0.5, 2.0)
    rows = [
        ",".join([repr(float(v)) for v in f] + [str(int(l))])
        for f, l in zip(ds.features, ds.labels)
    ]
    train_path, test_path = tmp_path / "train.csv", tmp_path / "test.csv"
    train_path.write_text("\n".join(rows[:100]) + "\n", encoding="utf-8")
    test_path.write_text("\n".join(rows[100:]) + "\n", encoding="utf-8")
    return train_path, test_path


def test_sweep_accuracy_metric_with_csv_split(monkeypatch, tmp_path):
    values = _collect_metrics(monkeypatch)
    train_path, test_path = _split_csvs(tmp_path)
    spec = _tiny_spec(
        "sweep-clip", tmp_path / "acc.csv", synthetic=None, csv=str(train_path),
        test_csv=str(test_path), clip_candidates=("p0",), batch=25.0,
    )
    report = cmd_sweep_clip(spec)
    assert report.metric_kind == "accuracy"
    assert len(values) == 2 * 2 and all(0.0 <= v <= 1.0 for v in values)
    # separable data with mild noise should classify most held-out points
    assert report.rows[0][3] >= 0.6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the iterates overflow
def test_diverged_run_scores_nan_accuracy(monkeypatch, tmp_path, capsys):
    # a NaN iterate's scores are NaN and argmax made each row class 0, so the
    # sweep exited 0 with a diverged seed scored at the test split's class-0
    # share; without --test-csv the same runs exit 1
    rng = np.random.default_rng(5)
    paths = []
    for name, n in (("train", 300), ("test", 100)):
        x = rng.normal(size=(n, 3))
        labels = (x @ np.array([1.0, -0.5, 0.25]) > 0.2).astype(int)
        rows = [",".join([*map(repr, map(float, f)), str(l)]) for f, l in zip(x, labels)]
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_text("\n".join(rows) + "\n", encoding="utf-8")
    scored = []
    metric_value = commands._metric_value

    def recording(problem, test, w):
        scored.append((bool(np.isfinite(w).all()), metric_value(problem, test, w)))
        return scored[-1][1]

    monkeypatch.setattr(commands, "_metric_value", recording)
    out = tmp_path / "x.csv"
    argv = ["sweep-clip", "--csv", str(paths[0]), "--test-csv", str(paths[1]),
            "--iterations", "60", "--batch", "20", "--eta-grid", "1e308",
            "--clip-candidates", "p0,p100", "--no-noise", "--seeds", "0,1,2", "--out", str(out)]
    assert main(argv) == 1
    assert "every eta gives a NaN mean metric" in capsys.readouterr().err
    assert not out.exists()
    assert not all(finite for finite, _ in scored)
    for finite, accuracy in scored:
        assert 0.0 <= accuracy <= 1.0 if finite else math.isnan(accuracy)


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


@pytest.mark.filterwarnings("ignore::dpclip.privacy.PrivacyRegimeWarning")
def test_rnmm_pipeline_spends_each_share_of_its_budget_once(monkeypatch, tmp_path):
    # the rnmm-pipeline pin records the bytes these mechanisms give, and a
    # declared output change re-records it: DP-SGD calibrated at the whole
    # epsilon, or a selection with too little noise or unclamped scores,
    # would be re-recorded with it
    budgets, selections, scales = [], [], []
    calibrate, select = commands.noise_variance, commands.report_noisy_max

    def calibrating(T, tau, n, budget, *args, **kwargs):
        budgets.append((budget.epsilon, budget.delta))
        return calibrate(T, tau, n, budget, *args, **kwargs)

    def selecting(scores, epsilon, sensitivity, rng):
        selections.append((float(np.max(-scores)), epsilon, sensitivity))
        return select(scores, epsilon, sensitivity, rng)

    monkeypatch.setattr(commands, "noise_variance", calibrating)
    monkeypatch.setattr(commands, "report_noisy_max", selecting)
    spec = _tiny_spec("rnmm-pipeline", tmp_path / "r.csv", eps_rnmm=0.5, rnmm_clamp=2.0)
    cmd_rnmm_pipeline(spec)
    # both clip norms' DP-SGD runs are calibrated at eps - eps_rnmm
    assert budgets == [(2.0 - 0.5, spec.delta)] * 2
    # the scores, clamped to 2.0 (some constants are larger), have sensitivity 2.0
    ((top, epsilon, sensitivity),) = selections
    assert (epsilon, sensitivity) == (0.5, 2.0) and top <= 2.0
    assert commands.build_profile(commands._build_problem(spec)[0]).maximum > 2.0

    class Laplace:
        def laplace(self, loc, scale, size):
            scales.append(scale)
            return np.zeros(size)

    # report noisy max adds Laplace noise of scale 2 * sensitivity / epsilon
    assert report_noisy_max(np.array([1.0, 3.0, 2.0]), 0.5, 2.0, Laplace()) == 1
    assert scales == [2 * 2.0 / 0.5]


def test_phi_scaling_rows_and_phi_column(tmp_path):
    out = tmp_path / "phi.csv"
    spec = _tiny_spec(
        "phi-scaling", out, synthetic="heavy", n_list=(150, 600), tail_k=2.0,
        moment_k=2.0, dim=3, classes=2, iterations=30, batch=15.0,
        append_bias=False,
    )
    rows = cmd_phi_scaling(spec)
    assert len(rows) == 2
    budget = PrivacyBudget(spec.epsilon, spec.delta)
    for n, phi, k, _risk in rows:
        d = spec.classes * spec.dim  # parameter count of the softmax model
        assert phi == compute_phi(n, d, budget)
        assert k == 2.0


def test_phi_scaling_problems_follow_the_per_size_recipe(monkeypatch, tmp_path):
    # each size draws its own heavy-tailed data from [master_seed, 12, n], then
    # appends the bias column; the CSVs recorded so far depend on both
    from dpclip.harness import commands

    problems = []

    def capture(problem, configs):
        problems.append(problem)
        return [c.w0 for c in configs]

    monkeypatch.setattr(commands, "run_dp_sgd", capture)
    spec = _tiny_spec(
        "phi-scaling", tmp_path / "phi.csv", synthetic="heavy", master_seed=4,
        n_list=(120, 480), dim=3, classes=2, iterations=5, batch=15.0, no_noise=True,
    )
    cmd_phi_scaling(spec)
    assert len(problems) == len(spec.n_list)
    rng = np.random.default_rng(5)
    for n, got in zip(spec.n_list, problems):
        data = heavy_tailed_logistic_dataset(
            n, spec.dim, spec.classes, spec.tail_k, np.random.default_rng([4, 12, n])
        )
        want = logistic_problem(data.with_bias(), spec.classes)
        assert (got.n, got.dim) == (want.n, want.dim)
        w = rng.normal(size=want.dim)
        for a, b in ((got.lipschitz, want.lipschitz), (got.losses_at(w), want.losses_at(w)),
                     (got.grads_at(w), want.grads_at(w))):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k", [200.0, 2000.0])
def test_phi_scaling_large_moment_order_runs(tmp_path, k):
    # the empirical k-th moment overflowed, with a RuntimeWarning, and the
    # run then failed blaming epsilon for an infinite schedule clip norm
    out = tmp_path / "phi.csv"
    argv = ["phi-scaling", "--synthetic", "heavy", "--dim", "4", "--classes", "2",
            "--tail-k", "2", "--n-list", "500,2000", "--iterations", "10",
            "--moment-k", str(k), "--out", str(out)]
    assert main(argv) == 0  # the test config makes a RuntimeWarning an error
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (2, 4) and np.isfinite(rows).all()
    # the first size's k-th powers do overflow; the factored moment does not
    spec = ExperimentSpec("phi-scaling", str(out), synthetic="heavy", dim=4, classes=2)
    g = commands._build_problem(replace(spec, n=500), 500)[0].lipschitz
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.mean(g**k))
    assert np.isfinite(g.max() * np.mean((g / g.max()) ** k) ** (1.0 / k))


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


def test_bias_oracle_large_order_has_no_nan(tmp_path, capsys):
    # E||v||^1000 and tau^999 overflow here; with RuntimeWarning an error in
    # Tier-1, an overflow warning fails this test as well as a NaN does
    out = tmp_path / "b.csv"
    assert main(["bias-oracle", "--count", "5", "--p-list", "1000", "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text(encoding="utf-8").split("\n")[1:-1]]
    assert len(rows) == 5 * 7 and "nan" not in out.read_text(encoding="utf-8")
    corollary = [float(r[5]) for r in rows]
    assert math.inf in corollary and all(c == math.inf or c < 1e308 for c in corollary)
    assert "[PASS]" in capsys.readouterr().out


def test_bias_oracle_fails_on_a_nan_margin(monkeypatch, tmp_path, capsys):
    from dpclip.harness import commands

    calls = iter(range(100))

    def nan_from_the_fourth(dist, tau, p):
        return math.nan if next(calls) >= 3 else 1e9

    monkeypatch.setattr(commands, "bias_bound_corollary", nan_from_the_fourth)
    out = tmp_path / "b.csv"
    assert main(["bias-oracle", "--count", "2", "--p-list", "2", "--out", str(out)]) == 2
    first = out.read_text(encoding="utf-8").split("\n")[4].split(",")
    assert first[5] == "nan"
    captured = capsys.readouterr()
    assert "[FAIL]" in captured.out
    assert f"NaN margin at (dist_id, p, tau) = (0, 2.0, {first[2]})" in captured.err


def _one_large_atom(monkeypatch):
    """Make every bias-oracle draw the atom [1e200, 1e200] beside a zero atom."""
    from dpclip.clipping import DiscreteVectorDistribution
    from dpclip.harness import commands

    dist = DiscreteVectorDistribution(
        vectors=np.array([[1e200, 1e200], [0.0, 0.0]]), probs=np.array([0.5, 0.5])
    )
    monkeypatch.setattr(commands, "DiscreteVectorDistribution", lambda vectors, probs: dist)
    return dist


def test_bias_oracle_tolerance_scales_with_the_terms(monkeypatch, tmp_path, capsys):
    from dpclip.clipping import bias_bound_lemma, clipping_bias_exact

    dist = _one_large_atom(monkeypatch)
    exact, lemma = clipping_bias_exact(dist, 1.0), bias_bound_lemma(dist, 1.0, 1.5)
    assert lemma - exact < -1e180  # one ulp below: rounding, not a violation
    out = tmp_path / "b.csv"
    assert main(["bias-oracle", "--count", "1", "--p-list", "1.5,2", "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text(encoding="utf-8").split("\n")[1:-1]]
    # such margins are written, among them an ulp of tau below an exact 0
    assert min(float(r[6]) for r in rows) < -1e180
    assert any(float(r[3]) == 0.0 and float(r[6]) < 0.0 for r in rows)
    assert "[PASS]" in capsys.readouterr().out


@pytest.mark.parametrize("large", [False, True], ids=["drawn-atoms", "large-atom"])
def test_bias_oracle_fails_on_a_real_violation(monkeypatch, tmp_path, capsys, large):
    from dpclip.clipping import bias_bound_lemma
    from dpclip.harness import commands

    if large:
        _one_large_atom(monkeypatch)

    def lemma_too_low(dist, tau, p):
        return bias_bound_lemma(dist, tau, p) - 1e-6 * tau

    monkeypatch.setattr(commands, "bias_bound_lemma", lemma_too_low)
    out = tmp_path / "b.csv"
    assert main(["bias-oracle", "--count", "2", "--p-list", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "[FAIL]" in captured.out
    assert "bias bound chain violated: worst relative margin" in captured.err


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


@pytest.mark.filterwarnings("ignore::dpclip.privacy.PrivacyRegimeWarning")
def test_lower_bound_demo_risks_are_the_objective_less_f_star_bitwise(monkeypatch, tmp_path):
    # each risk is f(w) - f(v / ||v||), with w replayed from the configs the
    # command passes to run_dp_sgd and v the planted direction
    calls = []

    def recording(problem, configs):
        calls.append((problem, configs))
        return run_dp_sgd(problem, configs)

    monkeypatch.setattr(commands, "run_dp_sgd", recording)
    spec = _tiny_spec(
        "lower-bound-demo", tmp_path / "lb.csv", dim=4, n=200, qv_p=0.2, moment_k=2.0,
        iterations=30, batch=20.0, synthetic=None, seeds=(0, 1, 2, 5),
    )
    rows = cmd_lower_bound_demo(spec)
    ((problem, configs),) = calls
    rng = np.random.default_rng([spec.master_seed, commands._TAG_QV])
    v = np.zeros(spec.dim)
    v[rng.permutation(spec.dim)[: spec.dim // 2]] = 1.0
    f_star = problem.objective(v / np.linalg.norm(v))
    assert f_star < 0.0
    assert [row[0] for row in rows] == [c.seed for c in configs] == list(spec.seeds)
    for row, w in zip(rows, run_dp_sgd(problem, configs)):
        assert float(row[1]).hex() == (problem.objective(w) - f_star).hex()


def test_command_fields_match_spec_and_parsers():
    assert set(COMMAND_FIELDS) == set(COMMANDS)
    spec_fields = set(ExperimentSpec.__dataclass_fields__)
    read = {name for names in COMMAND_FIELDS.values() for name in names}
    assert read <= spec_fields
    assert spec_fields - read == {"command"}
    parser = build_parser()
    for command, names in COMMAND_FIELDS.items():
        dests = list(vars(parser.parse_args([command])))
        assert dests == ["command", *names], command


def test_no_noise_skips_calibration_in_every_dp_sgd_command(monkeypatch, tmp_path):
    from dpclip.harness import commands

    def calibrate(*args, **kwargs):
        raise AssertionError("noise calibrated under no_noise")

    monkeypatch.setattr(commands, "noise_variance", calibrate)
    phi = _tiny_spec(
        "phi-scaling", tmp_path / "phi.csv", synthetic="heavy", n_list=(150,),
        dim=3, classes=2, iterations=10, batch=15.0, no_noise=True,
    )
    assert len(cmd_phi_scaling(phi)) == 1
    lb = _tiny_spec(
        "lower-bound-demo", tmp_path / "lb.csv", synthetic=None, dim=2, n=200,
        qv_p=0.2, iterations=10, no_noise=True,
    )
    assert len(cmd_lower_bound_demo(lb)) == 2


# a small valid run on a CSV dataset, so that each case below would exit 0 if
# the field it adds were silently ignored
_CSV_RUN = ["--csv", "train.csv", "--batch", "2", "--iterations", "5", "--eta-grid", "0.1"]
_CSV_SWEEP = ["sweep-clip", *_CSV_RUN, "--clip-candidates", "1.0"]
_SYNTHETIC_FLAGS = {
    "synthetic": ["--synthetic", "planted"], "n": ["--n", "3"], "dim": ["--dim", "2"],
    "classes": ["--classes", "2"], "norm_low": ["--norm-low", "0.5"],
    "norm_high": ["--norm-high", "2"], "tail_k": ["--tail-k", "3"],
}


def _unrecognized(flags):
    return _usage("dpclip", f"unrecognized arguments: {flags}")


@pytest.mark.parametrize(
    "argv, err",
    [
        pytest.param(["bias-oracle", "--count", "2", "--epsilon", "2"],
                     _unrecognized("--epsilon 2"), id="bias-epsilon"),
        pytest.param(["bias-oracle", "--count", "2", "--no-noise"], _unrecognized("--no-noise"),
                     id="bias-no-noise"),
        pytest.param(["phi-scaling", "--n-list", "100", "--csv", "train.csv"],
                     _unrecognized("--csv train.csv"), id="phi-csv"),
        pytest.param(["phi-scaling", "--n-list", "100", "--n", "100"],
                     _usage("dpclip phi-scaling", "ambiguous option: --n could match --no-noise,"
                            " --n-list"), id="phi-n"),
        pytest.param(["lower-bound-demo", "--eta-grid", "0.1"], _unrecognized("--eta-grid 0.1"),
                     id="lower-bound-eta-grid"),
        *[
            pytest.param(_CSV_SWEEP + flag, f"validation error: --csv data ignores the synthetic"
                         f" fields ['{key}']\n", id=f"sweep-csv-{key}")
            for key, flag in _SYNTHETIC_FLAGS.items()
        ],
        pytest.param(
            ["phi-scaling", "--n-list", "60", "--batch", "10", "--iterations", "5",
             "--synthetic", "planted"],
            "validation error: phi-scaling runs heavy-tailed data: --synthetic heavy\n",
            id="phi-synthetic-planted",
        ),
        # the closed form's constant is fixed at 1: --epsilon and --delta set the noise
        pytest.param(_CSV_SWEEP + ["--nu", "0.5"], _unrecognized("--nu 0.5"), id="sweep-nu"),
        # flags are the only input, and a bool flag is a plain switch
        pytest.param(_CSV_SWEEP + ["--config", "x.json"], _unrecognized("--config x.json"),
                     id="sweep-config"),
        pytest.param(_CSV_SWEEP + ["--no-append-bias"], _unrecognized("--no-append-bias"),
                     id="sweep-no-append-bias"),
    ],
)
def test_cli_rejects_flags_a_command_ignores(fails_fast, argv, err):
    fails_fast(argv, 1, err)


def test_cli_maps_oracle_failures_to_exit_2(monkeypatch, tmp_path):
    from dpclip.harness import commands
    from dpclip.harness.spec import OracleFailure

    def boom(spec):
        raise OracleFailure("forced")

    monkeypatch.setitem(commands.COMMANDS, "bias-oracle", boom)
    assert main(["bias-oracle", "--count", "1", "--out", str(tmp_path / "x.csv")]) == 2


def test_benchmark_hooks_reach_their_layers(tmp_path, src_env):
    # bench/child.py wraps layer functions by name; a renamed or bypassed one
    # would otherwise break only the traced benchmark. Logistic steps take
    # Problem.clipped_sum, so grads_at and clip_rows are reached through the
    # hard instance's generic step in lower-bound-demo
    root = Path(__file__).resolve().parents[1]
    shared = ["--iterations", "10", "--batch", "10", "--out", str(tmp_path / "x.csv")]
    runs = [
        ["sweep-clip", "--synthetic", "planted", "--n", "60", "--dim", "3",
         "--seeds", "0,1", "--eta-grid", "0.3", "--clip-candidates", "p0", *shared],
        ["lower-bound-demo", "--dim", "2", "--n", "60", *shared],
    ]
    called = set()
    for i, argv in enumerate(runs):
        report, spans = tmp_path / f"report{i}.json", tmp_path / f"spans{i}.npz"
        proc = subprocess.run(
            [sys.executable, str(root / "bench" / "child.py"), str(report),
             "--spans", str(spans), "--", *argv],
            env=src_env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(report.read_text(encoding="utf-8"))["exit_code"] == 0
        with np.load(spans) as trace:
            called |= set(trace["names"][np.unique(trace["name"])])
    assert {"optimizer.run_dp_sgd", "optimizer.dp_sgd_step", "optimizer.poisson_sample",
            "clipping.clip_rows", "privacy.gaussian_noise", "losses.grads_at"} <= called


@pytest.mark.parametrize(
    "bad_row, err",
    [
        ("nan,1.0,1", "non-finite feature in row 1"),
        ("1e308,1e308,1", "the Lipschitz constant of row 1 overflows;"
                          " per-sample Lipschitz constants must be finite"),
        # without --append-bias an all-zero row's constant is 0
        ("0.0,0.0,1", "per-sample Lipschitz constant 0.0 at index 1 must be finite and positive"),
    ],
    ids=["nan-feature", "overflowing-norm", "all-zero-row"],
)
def test_cli_rejects_non_finite_input_before_running(tmp_path, fails_fast, bad_row, err):
    # a NaN feature, a finite row whose Lipschitz constant overflows, or a row
    # whose constant is 0 fails at set-up with exit code 1, names the row and
    # writes no result
    train = tmp_path / "bad.csv"
    train.write_text("0.5,-1.0,0\n" + bad_row + "\n2.0,0.25,1\n", encoding="utf-8")
    for candidates in ("1.0", "p0,p100"):
        argv = ["sweep-clip", "--csv", str(train), "--batch", "2", "--clip-candidates", candidates]
        fails_fast(argv, 1, f"validation error: {err}\n", allow=_DATA)


@pytest.mark.filterwarnings("ignore::dpclip.privacy.PrivacyRegimeWarning")
def test_cli_runs_on_a_row_whose_squares_overflow_but_whose_constant_is_finite(
    tmp_path, capsys
):
    # a row scaled by 1e200 has a finite Lipschitz constant, so the sweep runs;
    # clipping at p100, that constant, overflows the noise variance instead
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 3))
    y = (X[:, 0] > 0).astype(int)
    X[7] *= 1e200
    train = tmp_path / "train.csv"
    np.savetxt(train, np.column_stack([X, y]), fmt=["%.17g"] * 3 + ["%d"], delimiter=",")
    out = tmp_path / "out.csv"
    args = ["sweep-clip", "--csv", str(train), "--append-bias", "--batch", "20",
            "--iterations", "50", "--eta-grid", "0.1,1", "--seeds", "0,1", "--out", str(out)]
    assert main([*args, "--clip-candidates", "p0,p50,p99"]) == 0
    rows = [row.split(",") for row in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert len(rows) == 3
    assert all(math.isfinite(float(v)) for row in rows for v in (row[0], *row[2:]))
    out.unlink()
    assert main([*args, "--clip-candidates", "p0,p100"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: noise variance is inf at epsilon = 2.0, tau = "), err
    assert err.rstrip().endswith("e+200") and not out.exists()


# ---------------------------------------------------------------------------
# Run flags and test splits leave only CSV parses in the cache
# ---------------------------------------------------------------------------


# flags that change the private runs but not the data
_RUN_FLAG_CHANGES = [
    [], ["--epsilon", "4"], ["--delta", "1e-6"], ["--seeds", "4,5,6"],
    ["--eta-grid", "0.03,1"], ["--clip-candidates", "p0,p50,p100"], ["--batch", "15"],
    ["--no-noise"],
]


@pytest.mark.filterwarnings("ignore::dpclip.privacy.PrivacyRegimeWarning")
@pytest.mark.parametrize("data", ["synthetic", "csv"])
def test_flag_changes_write_the_empty_cache_bytes_and_keep_one_csv_entry(
    monkeypatch, tmp_path, private_cache_home, data
):
    # one dataset swept over epsilon, seeds, step sizes and clip candidates
    # runs no oracle; each run writes the bytes it writes from an empty
    # cache, and the CSV's parse is the only entry the sweep leaves
    if data == "synthetic":
        source = ["--synthetic", "planted", "--n", "60", "--dim", "3", "--append-bias"]
    else:
        source = ["--csv", str(_split_csvs(tmp_path)[0])]
    base = ["sweep-clip", *source, "--iterations", "10", "--batch", "10", "--eta-grid", "0.3",
            "--clip-candidates", "p0", "--seeds", "0,1"]
    _forbid_work(monkeypatch, _ORACLE)
    for i, flags in enumerate(_RUN_FLAG_CHANGES):
        warm, cold = tmp_path / f"warm{i}.csv", tmp_path / f"cold{i}.csv"
        assert main([*base, *flags, "--out", str(warm)]) == 0
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"empty{i}"))
        assert main([*base, *flags, "--out", str(cold)]) == 0
        monkeypatch.setenv("XDG_CACHE_HOME", str(private_cache_home))
        assert warm.read_bytes() == cold.read_bytes()
    if data == "synthetic":
        assert not private_cache_home.exists()
    else:
        (name,) = (p.name for p in (private_cache_home / "dpclip").iterdir())
        assert name.startswith("loadtxt1-")


def test_sweep_with_a_test_split_caches_only_its_two_parses(tmp_path, private_cache_home):
    train_path, test_path = _split_csvs(tmp_path)
    spec = _tiny_spec(
        "sweep-clip", tmp_path / "acc.csv", synthetic=None, csv=str(train_path),
        test_csv=str(test_path), clip_candidates=("p0",), batch=25.0,
    )
    cmd_sweep_clip(spec)
    names = sorted(p.name for p in (private_cache_home / "dpclip").iterdir())
    assert len(names) == 2 and all(name.startswith("loadtxt1-") for name in names)
