"""Fault map of Tier-1: which tests fail on each of a list of source faults.

    python tests/faults.py [NAME ...]

Each fault in FAULTS (or each one named) replaces one exact text in one file
of a copy of this tree, in a temporary directory, and runs Tier-1 there with
``PYTHONDONTWRITEBYTECODE=1`` and a private ``XDG_CACHE_HOME``. It prints the
tests that fail, then the faults that no test or only one test catches, and
exits 1 if a fault is caught by none. A full map takes about 25 s per fault
on 2 vCPUs, plus 60 s for ``fork-map-waits-for-a-stuck-child``. A test may be
merged into another only when the one that survives catches every fault it
catches here and covers its inputs. Tier-1 checks that each old text occurs
exactly once in its file, so a refactor cannot silently drop a fault.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLI, CMD, SPEC = (f"src/dpclip/harness/{name}.py" for name in ("cli", "commands", "spec"))
CLIP, CSV, LIP, LOSS, OPT, PAR, PRIV = (
    f"src/dpclip/{name}.py"
    for name in ("clipping", "_dataset_csv", "lipschitz", "losses", "optimizer", "parallel",
                 "privacy")
)

# (name, file, exact old text, new text)
FAULTS = (
    # the DP step and its run
    ("step-divides-by-realised-batch", OPT, "clipped_sum(W, batch, step.taus) / step.b",
     "clipped_sum(W, batch, step.taus) / max(batch.size, 1)"),
    ("step-half-noise", OPT, "g + (0.0 + step.scales * z)", "g + (0.0 + 0.5 * step.scales * z)"),
    ("run-one-extra-step", OPT, "for _ in range(t_hat):", "for _ in range(t_hat + 1):"),
    ("run-t-hat-at-least-t-minus-1", OPT, "rng, int(rng.integers(T))",
     "rng, max(int(rng.integers(T)), T - 1)"),
    ("generic-step-clips-the-sum", OPT, "clip_rows(grads, step.taus[:, None]).sum(axis=1)",
     "clip_rows(grads.sum(axis=1), step.taus)"),
    ("step-draws-noise-before-the-batch", OPT,
     "    batch = poisson_sample(problem.n, step.b, rng)\n"
     "    z = gaussian_noise(step.noise, rng) if step.noise is not None else None\n",
     "    z = gaussian_noise(step.noise, rng) if step.noise is not None else None\n"
     "    batch = poisson_sample(problem.n, step.b, rng)\n"),
    ("step-constants-shared-b-unchecked", OPT, "c.b != b or (c.sigma_sq > 0) != noisy",
     "(c.sigma_sq > 0) != noisy"),
    ("config-b-unchecked", OPT, "if not self.b > 0:", "if False:"),
    # noise calibration and private selection
    ("noise-variance-drops-log-delta", PRIV, "T * math.log(1.0 / budget.delta) * tau", "T * tau"),
    ("noise-calibrated-at-spec-n", CMD, "tau, problem.n, budget", "tau, spec.n, budget"),
    ("no-noise-still-calibrates", CMD, "    if spec.no_noise:\n        return 0.0\n", ""),
    ("phi-without-sqrt", PRIV, "math.sqrt(budget.nu * d * math.log(1.0 / budget.delta))",
     "(budget.nu * d * math.log(1.0 / budget.delta))"),
    ("tiny-epsilon-divides-by-zero", PRIV, "if denominator == 0:", "if False:"),
    ("rnmm-dpsgd-at-whole-epsilon", CMD, "run_spec = replace(spec, epsilon=eps_dpsgd)",
     "run_spec = spec"),
    ("rnmm-laplace-scale-halved", PRIV, "laplace(0.0, 2.0 * sensitivity",
     "laplace(0.0, sensitivity"),
    ("rnmm-scores-unclamped", CMD, "report_noisy_max(-clamped,",
     "report_noisy_max(-problem.lipschitz,"),
    ("rnmm-split-unchecked", CMD, "0 < spec.eps_rnmm < spec.epsilon", "0 < spec.eps_rnmm"),
    ("rnmm-eps-not-required", CMD, "if spec.eps_rnmm is None:", "if False:"),
    # the Poisson sampler
    ("poisson-rate-b-over-n-plus-1", OPT, "q = b / n\n", "q = b / (n + 1)\n"),
    ("poisson-gaps-off-by-one", OPT, "n + 1).cumsum() - 1", "n + 1).cumsum()"),
    ("poisson-switch-at-32-chunks", OPT, "if 64 * chunk > n:", "if 32 * chunk > n:"),
    # the clipped-sum contract
    ("clip-rows-fmin-to-minimum", CLIP, "np.fmin(1.0, c / row_norms(rows))",
     "np.minimum(1.0, c / row_norms(rows))"),
    ("clip-rows-accepts-zero-threshold", CLIP, "bad = ~(c > 0)", "bad = c < 0"),
    ("row-norms-no-overflow-rescale", CLIP, "if not np.isfinite(norms).all():", "if False:"),
    ("clipped-sum-scales-up", LOSS, "a = np.fmin(xn, taus", "a = np.fmax(xn, taus"),
    ("clipped-sum-gemm-for-every-iterate", LOSS,
     "clips = (c_norm * xn > taus[:, None]).any(axis=1)", "clips = np.ones(K, dtype=bool)"),
    ("logistic-one-hot-not-subtracted", LOSS, "P -= (y[idx] == classes)[:, None, :]", "P -= 0.0"),
    ("column-norms-no-underflow-rescue", LOSS, "low = squares < 2.0**-900", "low = squares < 0.0"),
    ("summed-in-order-two-operands-at-d-1", LOSS, "if Xb.shape[1] == 1:", "if False:"),
    ("hard-instance-grad-at-unit-norm", LOSS, "if wnorm > 1.0:\n                out[k * B",
     "if wnorm >= 1.0:\n                out[k * B"),
    # clip-norm candidates
    ("percentile-always-rounds", LIP, "if abs(x - rank) > 4 * sys.float_info.epsilon * x:",
     "if False:"),
    ("percentile-always-ceil", LIP, "rank = round(x)", "rank = math.ceil(x)"),
    ("profile-accepts-zero-constants", LIP, "bad = ~(np.isfinite(g) & (g > 0))",
     "bad = ~np.isfinite(g)"),
    # spec and CLI rules
    ("spec-allows-repeated-seeds", SPEC, "if repeated:", "if False:"),
    ("spec-allows-infinite-growth-c", SPEC, '{"tail_k", "eps_rnmm"}',
     '{"tail_k", "eps_rnmm", "growth_c"}'),
    ("spec-budget-unchecked", SPEC, "            PrivacyBudget(self.epsilon, self.delta)\n",
     "            pass\n"),
    ("spec-test-csv-without-csv", SPEC, "if self.test_csv is not None and self.csv is None:",
     "if False:"),
    ("spec-percentile-unbounded", SPEC, "if not 0 <= q <= 100:", "if not 0 <= q:"),
    ("check-fits-off-by-one", CMD, "if batch > n:", "if batch > n + 1:"),
    ("phi-fits-first-size-only", CMD, "min(spec.n_list))", "spec.n_list[0])"),
    ("cli-csv-keeps-synthetic-fields", CLI, "        if ignored:\n", "        if False:\n"),
    ("cli-out-checked-after-the-run", CLI, "        _check_out(spec.out)\n", ""),
    ("cli-usage-error-exits-2", CLI, "self.exit(1, ", "self.exit(2, "),
    # metrics
    ("best-eta-takes-nan", CMD, "scored = np.flatnonzero(~np.isnan(mean))",
     "scored = np.arange(len(mean))"),
    ("accuracy-takes-lowest-mean", CMD, "np.argmax if test is not None else np.argmin",
     "np.argmin"),
    ("diverged-accuracy-scores-class-0", CMD,
     "        if not np.isfinite(scores).all():\n            return math.nan\n", ""),
    ("bias-oracle-nan-margin-passes", CMD, "worst >= -1e-9 and not nan_at", "worst >= -1e-9"),
    # data and CSV loading with its cache
    ("labels-negative-accepted", LOSS, "if np.any(self.labels < 0):", "if False:"),
    ("lipschitz-overflow-accepted", LOSS, "bad = ~np.isfinite(lipschitz)",
     "bad = np.zeros(n, dtype=bool)"),
    ("csv-bias-column-keeps-label", LOSS, "data[:, -1] = 1.0", "data[:, -1] = data[:, -1]"),
    ("csv-loader-imported-by-every-run", LOSS, "from .clipping import row_norms\n",
     "from .clipping import row_norms\nfrom . import _dataset_csv  # noqa: F401\n"),
    ("csv-skips-the-first-data-row", CSV, "skiprows = reader.line_num - 1",
     "skiprows = reader.line_num"),
    ("csv-cache-hit-of-any-width", CSV, " and data.shape[1] == columns:", ":"),
    ("csv-cache-hit-not-refreshed", CSV, "os.utime(entry)", "os.stat(entry)"),
    ("csv-cache-never-pruned", CSV, "[:-KEEP]", "[:0]"),
    # fork_map
    ("fork-map-reverses-a-childs-results", PAR, "zip(share, value)", "zip(share[::-1], value)"),
    ("fork-map-shortest-first", PAR, "key=lambda i: -weights[i]", "key=lambda i: weights[i]"),
    ("fork-map-waits-for-a-stuck-child", PAR, "os.kill(pid, signal.SIGKILL)", "pass"),
)


def catchers(path: str, old: str, new: str) -> list[str]:
    """The Tier-1 tests that fail on a copy of the tree with ``old`` replaced."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", ".bench_work", ".benchmarks", ".pytest_cache", "__pycache__"))
        target = tree / path
        text = target.read_text(encoding="utf-8")
        assert text.count(old) == 1, f"{path}: the old text must occur exactly once"
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"),
                   XDG_CACHE_HOME=str(Path(tmp) / "cache"))
        proc = subprocess.run(
            # test_faults.py fails on every edit: it checks that the old texts are there
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--ignore", "tests/test_faults.py"],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    if proc.returncode not in (0, 1):  # pytest could not run the suite
        raise RuntimeError(proc.stdout + proc.stderr)
    return re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)


if __name__ == "__main__":
    chosen = [f for f in FAULTS if len(sys.argv) < 2 or f[0] in sys.argv[1:]]
    caught = {}
    for name, path, old, new in chosen:
        caught[name] = catchers(path, old, new)
        print(f"{name} ({path}): {len(caught[name])} tests", *caught[name], sep="\n    ",
              flush=True)
    single = {name: tests[0] for name, tests in caught.items() if len(tests) == 1}
    missed = [name for name, tests in caught.items() if not tests]
    print(f"\n{len(caught) - len(missed)} of {len(caught)} faults caught")
    print(f"caught by one test only: {len(single)}", *(f"{n}: {t}" for n, t in single.items()),
          sep="\n    ")
    print(f"caught by none: {len(missed)}", *missed, sep="\n    ")
    sys.exit(1 if missed else 0)
