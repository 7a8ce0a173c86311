"""Per-layer metrics from the spans of one traced CLI invocation.

A span's self time is its duration minus the time its direct children cover;
calls are sequential, so the children of a span never overlap.
"""

from __future__ import annotations

import numpy as np

# name -> unit, in the order they are printed
UNITS = {
    "optimizer.reference_minimum.s": "s",
    "optimizer.subgradient_descent.iters": "count",
    "optimizer.subgradient_descent.us_per_iter": "us",
    "optimizer.dp_sgd_step.calls": "count",
    "optimizer.dp_sgd_step.s": "s",
    "optimizer.dp_sgd_step.self_s": "s",
    "optimizer.dp_sgd_step.us_p50": "us",
    "optimizer.dp_sgd_step.us_p99": "us",
    "optimizer.poisson_sample.s": "s",
    "optimizer.poisson_sample.us_p50": "us",
    "optimizer.poisson_sample.us_p99": "us",
    "optimizer.poisson_sample.rows_in_ratio": "ratio",
    "optimizer.run_dp_sgd.calls": "count",
    "optimizer.run_dp_sgd.self_s": "s",
    "losses.grads_at.calls": "count",
    "losses.grads_at.rows": "count",
    "losses.grads_at.us_p50": "us",
    "losses.grads_at.bytes_computed": "bytes",
    "losses.grads_at.in_step_s": "s",
    "losses.losses_at.calls": "count",
    "losses.losses_at.rows": "count",
    "losses.passes_per_ref_iter": "passes/iter",
    "losses.load_dataset_csv.s": "s",
    "losses.dataset_gen.s": "s",
    "clipping.clip_rows.s": "s",
    "clipping.clip_rows.us_p50": "us",
    "clipping.clip_rows.us_p99": "us",
    "clipping.clip_rows.rows": "count",
    "clipping.clipped_frac": "ratio",
    "privacy.gaussian_noise.s": "s",
    "privacy.gaussian_noise.us_p50": "us",
    "privacy.noise_variance.calls": "count",
    "privacy.regime_warnings": "count",
    "lipschitz.build_profile.s": "s",
    "lipschitz.percentile.calls": "count",
    "harness.write_csv.s": "s",
    "harness.self_s": "s",
    "harness.metric_eval.s": "s",
    "harness.csv_identical": "flag",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


class Spans:
    """The arrays written by ``child.Tracer.save``; row 0 is the root span."""

    def __init__(self, path):
        with np.load(path) as z:
            self.names = [str(n) for n in z["names"]]
            self.name = z["name"]
            self.parent = z["parent"]
            self.a = z["a"]
            self.b = z["b"]
            self.dur = z["end"] - z["start"]
        has_parent = self.parent >= 0
        cover = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=self.dur.size
        )
        self.self_time = self.dur - cover

    def of(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == self.names.index(name)

    def child_of(self, name: str) -> np.ndarray:
        parents = self.of(name)
        return np.where(self.parent >= 0, parents[self.parent], False)

    def under(self, name: str) -> np.ndarray:
        """Spans with an ancestor called ``name``."""
        inside = self.child_of(name)
        parent = np.maximum(self.parent, 0)
        while True:
            grown = inside | inside[parent]
            grown[0] = False
            if np.array_equal(grown, inside):
                return inside
            inside = grown

    def total(self, name: str) -> float:
        return float(self.dur[self.of(name)].sum())

    def us(self, name: str, q: float) -> float:
        d = self.dur[self.of(name)]
        return float(np.percentile(d, q)) * 1e6 if d.size else 0.0

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self.of(name)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    spans: Spans,
    regime_warnings: int,
    traced_wall: float,
    untraced_wall: float,
    csv_identical: int,
) -> dict[str, float]:
    s = spans
    sgd = s.of("optimizer.subgradient_descent")
    iters = float(s.a[sgd].sum())
    # passes over the data inside the oracle, less the one evaluation of the
    # start point that every subgradient_descent call makes before iterating
    in_sgd = s.under("optimizer.subgradient_descent")
    passes = np.count_nonzero(
        in_sgd & (s.of("losses.objective") | s.of("losses.full_gradient"))
    ) - np.count_nonzero(sgd)
    poisson = s.of("optimizer.poisson_sample")
    grads = s.of("losses.grads_at")
    clip = s.of("clipping.clip_rows")
    step = s.of("optimizer.dp_sgd_step")
    metric_eval = s.of("losses.objective") & ~s.under("optimizer.reference_minimum")
    values = {
        "optimizer.reference_minimum.s": s.total("optimizer.reference_minimum"),
        "optimizer.subgradient_descent.iters": iters,
        "optimizer.subgradient_descent.us_per_iter": _ratio(
            s.total("optimizer.subgradient_descent") * 1e6, iters
        ),
        "optimizer.dp_sgd_step.calls": s.calls("optimizer.dp_sgd_step"),
        "optimizer.dp_sgd_step.s": s.total("optimizer.dp_sgd_step"),
        "optimizer.dp_sgd_step.self_s": float(s.self_time[step].sum()),
        "optimizer.dp_sgd_step.us_p50": s.us("optimizer.dp_sgd_step", 50),
        "optimizer.dp_sgd_step.us_p99": s.us("optimizer.dp_sgd_step", 99),
        "optimizer.poisson_sample.s": s.total("optimizer.poisson_sample"),
        "optimizer.poisson_sample.us_p50": s.us("optimizer.poisson_sample", 50),
        "optimizer.poisson_sample.us_p99": s.us("optimizer.poisson_sample", 99),
        "optimizer.poisson_sample.rows_in_ratio": _ratio(
            float(s.a[poisson].sum()), float(s.b[poisson].sum())
        ),
        "optimizer.run_dp_sgd.calls": s.calls("optimizer.run_dp_sgd"),
        "optimizer.run_dp_sgd.self_s": float(
            s.self_time[s.of("optimizer.run_dp_sgd")].sum()
        ),
        "losses.grads_at.calls": s.calls("losses.grads_at"),
        "losses.grads_at.rows": float(s.a[grads].sum()),
        "losses.grads_at.us_p50": s.us("losses.grads_at", 50),
        "losses.grads_at.bytes_computed": float(s.b[grads].sum()),
        "losses.grads_at.in_step_s": float(
            s.dur[grads & s.child_of("optimizer.dp_sgd_step")].sum()
        ),
        "losses.losses_at.calls": s.calls("losses.losses_at"),
        "losses.losses_at.rows": float(s.a[s.of("losses.losses_at")].sum()),
        "losses.passes_per_ref_iter": _ratio(float(passes), iters),
        "losses.load_dataset_csv.s": s.total("losses.load_dataset_csv"),
        "losses.dataset_gen.s": s.total("losses.dataset_gen"),
        "clipping.clip_rows.s": s.total("clipping.clip_rows"),
        "clipping.clip_rows.us_p50": s.us("clipping.clip_rows", 50),
        "clipping.clip_rows.us_p99": s.us("clipping.clip_rows", 99),
        "clipping.clip_rows.rows": float(s.a[clip].sum()),
        "clipping.clipped_frac": _ratio(float(s.b[clip].sum()), float(s.a[clip].sum())),
        "privacy.gaussian_noise.s": s.total("privacy.gaussian_noise"),
        "privacy.gaussian_noise.us_p50": s.us("privacy.gaussian_noise", 50),
        "privacy.noise_variance.calls": s.calls("privacy.noise_variance"),
        "privacy.regime_warnings": regime_warnings,
        "lipschitz.build_profile.s": s.total("lipschitz.build_profile"),
        "lipschitz.percentile.calls": s.calls("lipschitz.percentile"),
        "harness.write_csv.s": s.total("harness.write_csv"),
        "harness.self_s": float(s.self_time[0]),
        "harness.metric_eval.s": float(s.dur[metric_eval].sum()),
        "harness.csv_identical": csv_identical,
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    return values
