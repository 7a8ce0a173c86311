"""dpclip benchmark: end-to-end CLI timings and a traced per-layer breakdown.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the repository root; the CLI is imported from ``src/`` as checked
out, nothing is installed. Each workload is a closed loop of one CLI process
at a time, built from ``--seed`` (passed as ``--master-seed``; the
``sweep-large-n`` CSVs are generated here from it and cached under
``.bench_work/``):

- ``sweep-c08``: ``sweep-clip`` with the c08 acceptance config, the paper's
  headline experiment. The reference oracle takes about two thirds of the
  time and DP-SGD steps the rest, so it shows oracle and per-step gains.
- ``phi-c12``: ``phi-scaling`` with the c12 acceptance config. The reference
  oracle is nearly all of the time, so an oracle change shows most here and
  a DP-SGD step change shows almost nothing. One CLI run takes 45-65 s on a
  2-core Xeon VM, too long for the repeated runs of BENCHMARK.json, so it is
  run by name, by ``--workload all`` and by ``--smoke`` only.
- ``sweep-large-n``: ``sweep-clip`` on a 1e5-row train and a 2e4-row test
  CSV. The metric is test accuracy, so the oracle never runs: the time goes
  to the O(n) Poisson sampler in every step and to CSV parsing in set-up.
  An oracle change must show no change here.

``--trace 0`` first runs a few set-up probes (processes that exit at the
first call into ``reference_minimum`` or ``run_dp_sgd``), then full CLI
runs until ``--seconds`` have passed, and reports medians of

- ``wall_s``: process start to exit of one CLI run;
- ``setup_s``: process start to the first call into ``reference_minimum``
  or ``run_dp_sgd`` (import, data, ``Problem`` and Lipschitz profile),
  over the probes and the full runs;
- ``cpu_s``: user + system CPU seconds of the CLI process;
- ``peak_rss_mb``: its peak resident set size.

``--trace 1`` runs the command once untraced and once with every public
layer function wrapped (see ``child.py``) and reports the per-layer metrics
of ``layers.py``. Every CLI output is checked (CSV schema, finite values, the
paper property its acceptance test asserts, identical bytes across runs);
an invocation that exits non-zero, times out or fails a check counts as
failed. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the environment and every sample
go to ``.bench_work/results/``.

``--smoke`` runs all three workloads at a tiny size, untraced and traced,
and checks that every metric named in BENCHMARK.json is emitted with its
unit, that the output checks pass and that the traced self times account
for the traced wall time within ``SELF_TIME_TOLERANCE``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# One BLAS thread: the CLI runs one process at a time on a small shared
# machine, and a second BLAS thread made the wall time depend on whether the
# other core was free. Set before numpy loads so the recorded count is real.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import layers  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden_sha256.json"

SETUP_PROBES = 3
DEADLINE_S = 170.0  # every process of one benchmark run ends by then
# traced wall = (sum of span self times) + interpreter start-up, span dump and
# exit, which no span covers
SELF_TIME_TOLERANCE = (0.05, 0.15)  # (share of traced wall, seconds)


class CheckFailed(Exception):
    """A CLI output broke its schema or the paper property it must show."""


@dataclass
class Workload:
    argv: list[str]
    check: Callable[[Path], None]


def _seed_list(count: int) -> str:
    return ",".join(str(s) for s in range(count))


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise CheckFailed(f"header {rows[:1]} != {header}")
    return rows[1:]


def _finite(rows: list[list[str]], columns: list[int]) -> list[list[float]]:
    out = []
    for row in rows:
        values = [float(row[c]) for c in columns]
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"non-finite value in row {row}")
        out.append(values)
    return out


SWEEP_HEADER = ["tau", "tau_kind", "eta_best", "mean_metric", "std_metric"]


def _check_sweep(path: Path, etas: tuple[float, ...]) -> list[list[float]]:
    rows = _read_csv(path, SWEEP_HEADER)
    if len(rows) != 2 or any(r[1] != "percentile" for r in rows):
        raise CheckFailed(f"expected two percentile rows, got {rows}")
    values = _finite(rows, [0, 2, 3, 4])
    for tau, eta, _, std in values:
        if tau <= 0 or eta not in etas or std < 0:
            raise CheckFailed(f"bad sweep row {tau, eta, std}")
    return values


def sweep_c08(seed: int, tiny: bool) -> Workload:
    etas = (0.01, 0.03, 0.1, 0.3, 1.0)
    n, dim, iterations, batch, seeds = (
        (150, 4, 40, 20, 3) if tiny else (2000, 20, 300, 100, 20)
    )

    def check(path: Path) -> None:
        (tau_min, _, mean_min, _), (tau_max, _, mean_max, _) = _check_sweep(path, etas)
        if not tau_max / tau_min >= 5.0:
            raise CheckFailed(f"tau ratio {tau_max / tau_min} < 5")
        if not mean_min <= mean_max:
            raise CheckFailed(f"mean at p0 {mean_min} > mean at p100 {mean_max}")

    argv = [
        "sweep-clip", "--synthetic", "planted", "--n", str(n), "--dim", str(dim),
        "--classes", "3", "--norm-low", "0.4", "--norm-high", "8", "--append-bias",
        "--epsilon", "2", "--delta", "1e-5", "--iterations", str(iterations),
        "--batch", str(batch), "--eta-grid", ",".join(map(str, etas)),
        "--clip-candidates", "p0,p100", "--seeds", _seed_list(seeds),
        "--master-seed", str(seed),
    ]
    return Workload(argv, check)


def phi_c12(seed: int, tiny: bool) -> Workload:
    n_list, iterations, batch, seeds = (
        ((300, 1200), 40, 30, 3) if tiny else ((500, 2000, 8000), 200, 50, 20)
    )

    def check(path: Path) -> None:
        rows = _read_csv(path, ["n", "phi", "k", "median_risk"])
        values = _finite(rows, [0, 1, 2, 3])
        if [int(v[0]) for v in values] != list(n_list):
            raise CheckFailed(f"rows {rows} do not follow n list {n_list}")
        medians = [v[3] for v in values]
        if any(a < b for a, b in zip(medians, medians[1:])):
            raise CheckFailed(f"median risk increases with n: {medians}")

    argv = [
        "phi-scaling", "--synthetic", "heavy", "--dim", "4", "--classes", "2",
        "--tail-k", "2", "--moment-k", "2", "--gamma", "0.5", "--growth-c", "10",
        "--epsilon", "0.5", "--delta", "1e-5", "--iterations", str(iterations),
        "--batch", str(batch), "--n-list", ",".join(map(str, n_list)),
        "--append-bias", "--seeds", _seed_list(seeds), "--master-seed", str(seed),
    ]
    return Workload(argv, check)


def _large_n_csvs(seed: int, n_train: int, n_test: int, dim: int) -> tuple[Path, Path]:
    """Planted 3-class data with log-uniform row norms in [0.5, 4], from the
    benchmark's own generator so the inputs never move with dpclip's."""
    data = WORK / "data"
    paths = tuple(
        data / f"large-n-seed{seed}-d{dim}-{part}{size}.csv"
        for part, size in (("train", n_train), ("test", n_test))
    )
    if all(p.exists() for p in paths):
        return paths
    data.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0x1A26E])
    w_true = rng.normal(size=(3, dim))
    for path, size in zip(paths, (n_train, n_test)):
        u = rng.normal(size=(size, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        X = u * np.exp(rng.uniform(math.log(0.5), math.log(4.0), size=size))[:, None]
        y = np.argmax(X @ w_true.T, axis=1)
        tmp = path.with_suffix(".tmp")
        np.savetxt(tmp, np.column_stack([X, y]), fmt=["%.9g"] * dim + ["%d"], delimiter=",")
        os.replace(tmp, path)
    return paths


def sweep_large_n(seed: int, tiny: bool) -> Workload:
    etas = (0.3, 1.0)
    n_train, n_test, dim, iterations, batch, seeds = (
        (3000, 600, 5, 40, 50, 2) if tiny else (100_000, 20_000, 20, 300, 500, 5)
    )
    train, test = _large_n_csvs(seed, n_train, n_test, dim)

    def check(path: Path) -> None:
        for _, _, accuracy, _ in _check_sweep(path, etas):
            if not 1 / 3 < accuracy <= 1:
                raise CheckFailed(f"accuracy {accuracy} outside (1/3, 1]")

    argv = [
        "sweep-clip", "--csv", str(train.relative_to(ROOT)),
        "--test-csv", str(test.relative_to(ROOT)), "--append-bias",
        "--epsilon", "2", "--delta", "1e-5", "--iterations", str(iterations),
        "--batch", str(batch), "--eta-grid", ",".join(map(str, etas)),
        "--clip-candidates", "p0,p50", "--seeds", _seed_list(seeds),
        "--master-seed", str(seed),
    ]
    return Workload(argv, check)


WORKLOADS = {"sweep-c08": sweep_c08, "phi-c12": phi_c12, "sweep-large-n": sweep_large_n}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    ok: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    report: dict
    csv_sha256: str | None = None
    error: str = ""


def invoke(argv: list[str], tag: str, deadline: float, child_flags=()) -> Invocation:
    """Run one CLI process through child.py; time it from spawn to exit."""
    for sub in ("logs", "out", "reports"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    report_path = WORK / "reports" / f"{tag}.json"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(report_path), *child_flags, "--", *argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    timed_out = threading.Event()
    with open(WORK / "logs" / f"{tag}.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(max(deadline - t0, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    report, error = {}, ""
    if timed_out.is_set():
        error = "timed out"
    elif proc.returncode != 0:
        error = f"exit code {proc.returncode}"
    else:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    setup_at = report.get("setup_at")
    return Invocation(
        ok=not error,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=None if setup_at is None else setup_at - t0,
        report=report,
        error=error,
    )


def full_run(workload: Workload, tag: str, deadline: float, child_flags=()) -> Invocation:
    out = WORK / "out" / f"{tag}.csv"
    out.unlink(missing_ok=True)
    inv = invoke(workload.argv + ["--out", str(out.relative_to(ROOT))], tag, deadline, child_flags)
    if inv.ok:
        try:
            workload.check(out)
            inv.csv_sha256 = hashlib.sha256(out.read_bytes()).hexdigest()
        except (CheckFailed, OSError, ValueError) as exc:
            inv.ok, inv.error = False, f"output check: {exc}"
    return inv


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def golden_flag(tag: str, seed: int, sha: str | None) -> int:
    """1 if the CSV bytes equal those the seed commit produced for this
    workload and seed, 0 if they differ, -1 if no reference was recorded."""
    table = json.loads(GOLDEN.read_text(encoding="utf-8"))
    ref = table.get(tag, {}).get(str(seed))
    if ref is None or sha is None:
        return -1
    return int(sha == ref)


def _mark_nondeterministic(runs: list[Invocation]) -> None:
    shas = {r.csv_sha256 for r in runs if r.ok}
    if len(shas) > 1:
        for r in runs:
            if r.ok:
                r.ok, r.error = False, "CSV bytes differ between identical runs"


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _traced_runs(workload: Workload, tag: str, deadline: float, golden) -> tuple:
    """One untraced and one traced full run; per-layer metrics from the spans."""
    spans_path = WORK / "reports" / f"{tag}-spans.npz"
    spans_path.unlink(missing_ok=True)
    base = full_run(workload, f"{tag}-untraced", deadline)
    traced = full_run(workload, f"{tag}-traced", deadline, ["--spans", str(spans_path)])
    runs = [base, traced]
    _mark_nondeterministic(runs)
    if not traced.ok:
        return runs, {}, {}
    spans = layers.Spans(spans_path)
    values = layers.per_layer(
        spans, traced.report["regime_warnings"], traced.wall_s, base.wall_s,
        golden(traced.csv_sha256),
    )
    metrics = {k: (v, layers.UNITS[k], 1) for k, v in values.items()}
    return runs, metrics, {"self_total_s": float(spans.self_time.sum())}


def _timed_runs(workload: Workload, tag: str, seconds: float, deadline: float, golden) -> tuple:
    """Set-up probes, then full runs until ``seconds`` have passed; medians."""
    probe_out = str(Path(".bench_work", "out", "probe.csv"))
    probes = [
        invoke(workload.argv + ["--out", probe_out], f"{tag}-probe{i}", deadline,
               ["--stop-at-setup"])
        for i in range(SETUP_PROBES)
    ]
    for probe in probes:
        if probe.ok and probe.setup_s is None:
            probe.ok, probe.error = False, "set-up probe never reached the hook"
    full: list[Invocation] = []
    loop_start = time.monotonic()
    while not full or (
        time.monotonic() - loop_start < seconds
        and time.monotonic() + max(r.wall_s for r in full) < deadline
    ):
        full.append(full_run(workload, f"{tag}-run{len(full)}", deadline))
    _mark_nondeterministic(full)
    runs = probes + full
    setups = [r.setup_s for r in runs if r.setup_s is not None]
    metrics = {
        "wall_s": (_median([r.wall_s for r in full]), "s", len(full)),
        "setup_s": (_median(setups), "s", len(setups)),
        "cpu_s": (_median([r.cpu_s for r in full]), "s", len(full)),
        "peak_rss_mb": (_median([r.peak_rss_mb for r in full]), "MB", len(full)),
    }
    sha = full[0].csv_sha256
    return runs, metrics, {"csv_sha256": sha, "csv_identical": golden(sha)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Returns (result line, detail) for one benchmark run of one workload."""
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[name](seed, tiny)
    tag = f"{name}{'-tiny' if tiny else ''}"

    def golden(sha):
        return golden_flag(tag, seed, sha)

    if trace:
        runs, metrics, extra = _traced_runs(workload, tag, deadline, golden)
    else:
        runs, metrics, extra = _timed_runs(workload, tag, seconds, deadline, golden)
    failed = sum(not r.ok for r in runs)
    detail = {
        "workload": name, "seed": seed, "trace": trace, "tiny": tiny, **extra,
        "invocations": [{k: v for k, v in r.__dict__.items() if k != "report"} for r in runs],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    return result, detail


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    import ctypes
    import glob

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(str(index / "level")), _read(str(index / "size"))
        if level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dpclip").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


# ---------------------------------------------------------------------------
# Output and entry point
# ---------------------------------------------------------------------------


def report(result: dict, detail: dict, env: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"{detail['workload']} seed={detail['seed']} trace={int(detail['trace'])}")
    rows = [("fail_ratio", failed / attempted, "ratio", attempted)]
    rows += [(k, m["value"], m["unit"], m["samples"]) for k, m in detail["metrics"].items()]
    for name, value, unit, samples in rows:
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {text:>14s} {unit:11s} n={samples}")
    if "csv_sha256" in detail:
        flag = {1: "yes", 0: "NO", -1: "no reference"}[detail["csv_identical"]]
        print(f"  csv sha256 {detail['csv_sha256']} (identical to seed commit: {flag})")
    for inv in detail["invocations"]:
        if not inv["ok"]:
            print(f"  failed: {inv['error']}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (
        f"{detail['workload']}{'-tiny' if detail['tiny'] else ''}"
        f"-seed{detail['seed']}-trace{int(detail['trace'])}.json"
    )
    path.write_text(json.dumps({**detail, "env": env, "result": result}, indent=1))


def smoke() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        trace: {m["name"]: m["unit"] for m in declared[key]}
        for trace, key in ((False, "end_to_end"), (True, "per_layer"))
    }
    env = environment()
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            result, detail = run_workload(name, 0, 0.0, trace, tiny=True)
            report(result, detail, env)
            where = f"{name} trace={int(trace)}"
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{where}: metrics/units {got} != {want[trace]}")
            if not result["correct"]:
                problems.append(f"{where}: {result['failed']} failed invocations")
            if any(m["value"] is None for m in result["metrics"].values()):
                problems.append(f"{where}: a metric has no value")
            if trace and "self_total_s" in detail:
                wall = result["metrics"]["trace.wall_s"]["value"]
                share, seconds = SELF_TIME_TOLERANCE
                gap = wall - detail["self_total_s"]
                print(f"  self times cover {detail['self_total_s']:.4f} s of {wall:.4f} s traced wall")
                if not 0 <= gap <= share * wall + seconds:
                    problems.append(f"{where}: self times leave {gap:.4f} s of {wall:.4f} s")
    for problem in problems:
        print("SMOKE FAIL " + problem)
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main() -> int:
    # a terminated benchmark still kills and reaps its CLI process (see invoke)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of all workloads")
    args = parser.parse_args()
    if not (ROOT / "src" / "dpclip" / "harness" / "cli.py").is_file():
        print(f"bench: no dpclip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name], detail = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(results[name], detail, env)
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{key}": metric
            for name, r in results.items() for key, metric in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
