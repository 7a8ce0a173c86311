"""One benchmarked CLI invocation, run as a child process by ``bench/run.py``.

    python3 bench/child.py REPORT.json [--stop-at-setup] [--spans SPANS.npz] -- <dpclip argv>

Untraced (no ``--spans``), the only instrumentation is a one-shot hook on the
first call into ``reference_minimum`` or ``run_dp_sgd``: it records the
monotonic time at which set-up ended and then restores the original
functions. With ``--stop-at-setup`` the process exits right there, so a
set-up probe costs no experiment time.

Traced (``--spans``), every public function of each dpclip layer is wrapped
at the name through which it is looked up, and one span (name, start, end,
parent, two counters) is kept in memory per call. The spans are written to
SPANS.npz when the command returns.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402


class _SetupReached(BaseException):
    """Raised by the set-up hook of a probe; BaseException so the CLI's own
    handlers cannot turn it into an exit code."""


def _install_setup_hook(commands, stop: bool, report: dict) -> None:
    names = ("reference_minimum", "run_dp_sgd")
    originals = {name: getattr(commands, name) for name in names}

    def make(name):
        def first_call(*args, **kwargs):
            report["setup_at"] = time.monotonic()
            for key, fn in originals.items():
                setattr(commands, key, fn)
            if stop:
                raise _SetupReached
            return originals[name](*args, **kwargs)

        return first_call

    for name in names:
        setattr(commands, name, make(name))


class Tracer:
    """In-memory span recorder. A span is [name_id, start, end, parent, a, b]
    where ``a`` and ``b`` are per-call counters filled by the layer's note
    function (rows, bytes, clipped rows, ...)."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = [-1]

    def open_root(self, name: str, start: float) -> list:
        root = [self._name_id(name), start, 0.0, -1, 0.0, 0.0]
        self.spans.append(root)
        self.stack.append(0)
        return root

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, note=None):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name_id, clock(), 0.0, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4], span[5] = note(args, kwargs, result)
            return result

        return traced

    def save(self, path: str) -> None:
        import numpy as np

        arr = np.array(self.spans, dtype=float).reshape(-1, 6)
        np.savez(
            path,
            names=np.array(self.names),
            name=arr[:, 0].astype(np.int32),
            start=arr[:, 1],
            end=arr[:, 2],
            parent=arr[:, 3].astype(np.int64),
            a=arr[:, 4],
            b=arr[:, 5],
        )


def _install_tracer(tracer: Tracer) -> None:
    import numpy as np

    from dpclip import losses, optimizer
    from dpclip.harness import commands

    def rows_and_bytes(args, kwargs, result):
        # a = rows evaluated, b = bytes of the per-sample matrix computed
        return float(result.shape[0]), float(result.nbytes)

    def rows_drawn(args, kwargs, result):
        # a = rows included in the batch, b = rows drawn (one uniform each)
        return float(result.size), float(args[0])

    def rows_clipped(args, kwargs, result):
        # a = rows, b = rows whose norm exceeded the clip threshold
        rows, c = args
        norms = np.sqrt(np.sum(rows * rows, axis=1))
        return float(rows.shape[0]), float(np.count_nonzero(norms > c))

    def iterations(args, kwargs, result):
        return float(kwargs["T"] if "T" in kwargs else args[3]), 0.0

    wraps = [
        (commands, "run_dp_sgd", "optimizer.run_dp_sgd", None),
        (commands, "reference_minimum", "optimizer.reference_minimum", None),
        (commands, "build_profile", "lipschitz.build_profile", None),
        (commands, "percentile", "lipschitz.percentile", None),
        (commands, "load_dataset_csv", "losses.load_dataset_csv", None),
        (commands, "planted_logistic_dataset", "losses.dataset_gen", None),
        (commands, "heavy_tailed_logistic_dataset", "losses.dataset_gen", None),
        (commands, "noise_variance", "privacy.noise_variance", None),
        (commands, "write_csv", "harness.write_csv", None),
        (optimizer, "poisson_sample", "optimizer.poisson_sample", rows_drawn),
        (optimizer, "dp_sgd_step", "optimizer.dp_sgd_step", None),
        (optimizer, "clip_rows", "clipping.clip_rows", rows_clipped),
        (optimizer, "gaussian_noise", "privacy.gaussian_noise", None),
        (optimizer, "subgradient_descent", "optimizer.subgradient_descent", iterations),
        (losses.Problem, "grads_at", "losses.grads_at", rows_and_bytes),
        (losses.Problem, "losses_at", "losses.losses_at", rows_and_bytes),
        (losses.Problem, "objective", "losses.objective", None),
        (losses.Problem, "full_gradient", "losses.full_gradient", None),
    ]
    for owner, attr, name, note in wraps:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), note))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("report")
    parser.add_argument("--stop-at-setup", action="store_true")
    parser.add_argument("--spans")
    split = sys.argv.index("--")
    args = parser.parse_args(sys.argv[1:split])
    argv = sys.argv[split + 1 :]

    report: dict = {}
    tracer = None
    if args.spans:
        tracer = Tracer()
        root = tracer.open_root("harness", _T_START)

    from dpclip.harness import cli, commands
    from dpclip.privacy import PrivacyRegimeWarning

    if tracer is not None:
        _install_tracer(tracer)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", PrivacyRegimeWarning)
            code = cli.main(argv)
        root[2] = time.perf_counter()
        report["regime_warnings"] = sum(
            issubclass(w.category, PrivacyRegimeWarning) for w in caught
        )
        tracer.save(args.spans)
    else:
        _install_setup_hook(commands, args.stop_at_setup, report)
        try:
            code = cli.main(argv)
        except _SetupReached:
            code = 0
    report["exit_code"] = code
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
