"""Tests for fork_map and for results that must not depend on the CPU count."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dpclip.harness.cli import main
from dpclip.losses import geometric_median_problem, logistic_problem, planted_logistic_dataset
from dpclip.optimizer import DpSgdConfig, run_dp_sgd
from dpclip.parallel import _shares, fork_map


def _cpus(monkeypatch, count):
    # the affinity mask fork_map reads; raising=False for platforms without it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _count_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_returns_the_serial_map_in_input_order(monkeypatch):
    _cpus(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    items = list(range(11))
    weights = [5, 1, 1, 9, 2, 2, 7, 0, 0, 3, 1]
    for w in (None, weights):
        results = fork_map(lambda x: (x * x, os.getpid()), items, w)
        assert [r for r, _ in results] == [x * x for x in items]
        # the caller computes one share and two children the others
        assert len({pid for _, pid in results}) == 3
    assert len(forks) == 4
    _assert_no_child_left()


def test_fork_map_returns_results_larger_than_a_pipe_buffer_intact(monkeypatch):
    # each child's share pickles to 4.8 MB, far past the 64 KiB pipe buffer,
    # so its write blocks until the caller reads it
    _cpus(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    results = fork_map(lambda seed: (os.getpid(), np.random.default_rng(seed).random(300_000)),
                       range(6))
    assert len(forks) == 2 and len({pid for pid, _ in results}) == 3
    for seed, (_, values) in enumerate(results):
        assert np.array_equal(values, np.random.default_rng(seed).random(300_000))
    _assert_no_child_left()


def test_shares_are_balanced_longest_first():
    # t̂ of seeds 0-4 at T = 256: round robin would give 723 and 384 steps
    t_hat = [255, 141, 251, 243, 217]
    shares = _shares(t_hat, 2)
    assert sorted(sum(t_hat[i] for i in share) for share in shares) == [494, 613]
    # equal weights deal the items out in turn; zero weights still spread
    assert _shares([1.0] * 5, 2) == [[0, 2, 4], [1, 3]]
    assert _shares([0.0] * 4, 3) == [[0, 3], [1], [2]]


def test_fork_map_raises_a_child_exception_with_its_type_and_message(monkeypatch):
    _cpus(monkeypatch, 2)
    caller = os.getpid()

    def fn(x):
        if os.getpid() != caller:
            raise ValueError(f"bad item {x}")
        return x

    with pytest.raises(ValueError, match="^bad item 1$"):
        fork_map(fn, [0, 1, 2])
    _assert_no_child_left()


def test_fork_map_reports_a_child_that_dies_without_a_result(monkeypatch):
    _cpus(monkeypatch, 2)
    caller = os.getpid()

    def fn(x):
        if os.getpid() != caller:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match=r"died without a result \(exit code 3\)"):
        fork_map(fn, [0, 1])
    _assert_no_child_left()


def test_fork_map_reaps_children_when_the_callers_share_fails(monkeypatch):
    _cpus(monkeypatch, 2)
    caller = os.getpid()

    def fn(x):
        if os.getpid() != caller:
            time.sleep(60)
        raise KeyError(x)

    start = time.monotonic()
    with pytest.raises(KeyError):
        fork_map(fn, [0, 1])
    # the sleeping child is killed, not waited for
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def test_fork_map_with_one_cpu_never_forks(monkeypatch):
    _cpus(monkeypatch, 1)

    def no_fork():
        raise AssertionError("forked with one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    assert fork_map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]


def _problems():
    rng = np.random.default_rng(90)
    ds = planted_logistic_dataset(80, 3, 3, rng, 0.5, 4.0).with_bias()
    points = rng.normal(0, 3, size=(40, 2))
    return {
        "logistic": logistic_problem(ds, 3),
        "geometric-median": geometric_median_problem(points),
    }


@pytest.mark.parametrize("family", ["logistic", "geometric-median"])
def test_run_dp_sgd_list_is_bitwise_the_same_on_one_and_two_cpus(monkeypatch, family):
    prob = _problems()[family]
    T, seeds = 40, [0, 1, 2, 3, 5]
    assert len({int(np.random.default_rng(s).integers(T)) for s in seeds}) > 2
    configs = [
        DpSgdConfig(T=T, eta=eta, tau=tau, b=8.0, sigma_sq=sigma_sq,
                    w0=np.full(prob.dim, 0.1), seed=seed)
        for eta, tau, sigma_sq in [(0.3, 1.0, 0.4), (0.1, 0.5, 0.0), (0.05, 2.0, 2.5)]
        for seed in seeds
    ]
    _cpus(monkeypatch, 1)
    serial = run_dp_sgd(prob, configs)
    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    forked = run_dp_sgd(prob, configs)
    assert forks
    assert len(forked) == len(serial) == len(configs)
    for a, b in zip(serial, forked):
        assert np.array_equal(a, b)
    _assert_no_child_left()


_SWEEP = ["sweep-clip", "--synthetic", "planted", "--n", "300", "--dim", "4",
          "--iterations", "25", "--batch", "50", "--epsilon", "0.5", "--seeds", "0,1,2,3",
          "--eta-grid", "0.1,1.0", "--clip-candidates", "p0,p100"]


def test_sweep_csv_bytes_are_the_same_on_one_and_two_cpus(monkeypatch, tmp_path):
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    _cpus(monkeypatch, 1)
    assert main(_SWEEP + ["--out", str(one)]) == 0
    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    assert main(_SWEEP + ["--out", str(two)]) == 0
    assert forks
    assert one.read_bytes() == two.read_bytes()


def test_cli_on_a_pipe_prints_its_line_once_when_it_forks(tmp_path):
    # children leave through os._exit, so none of them goes on to print or
    # flushes the line still buffered in the caller's stdout when it forked
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env.pop("PYTHONUNBUFFERED", None)  # stdout on a pipe is then block-buffered
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from dpclip.harness.cli import main\n"
        "print('buffered before the fork')\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *_SWEEP, "--out", str(tmp_path / "x.csv")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines.count("buffered before the fork") == 1
    assert sum(line.startswith("sweep-clip: ") for line in lines) == 1
