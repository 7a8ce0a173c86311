"""Output pins: each DP-SGD command, rerun at the c13 acceptance argv, and
reduced c08 and c12 runs write their CSVs in ``tests/data/expected/`` to
within ``csv_compare``'s tolerance.

An output change shows as a diff to those files in the change that makes it.
Re-record them, after a declared output change only, with

    PYTHONPATH=src python tests/test_output_pins.py
"""

from pathlib import Path

import pytest

import numpy as np

from csv_compare import array_differences, csv_differences
from dpclip.harness.cli import main

EXPECTED = Path(__file__).parent / "data" / "expected"

_SHARED = ["--master-seed", "4", "--seeds", "0,1", "--epsilon", "2",
           "--iterations", "25", "--batch", "15"]
_PLANTED = ["--synthetic", "planted", "--n", "90", "--dim", "3", "--classes", "2",
            "--norm-low", "0.5", "--norm-high", "3.0", "--append-bias", "--eta-grid", "0.1,0.3"]
ARGV = {
    "sweep-clip": ["sweep-clip", *_SHARED, *_PLANTED, "--clip-candidates", "p0,p100"],
    "rnmm-pipeline": ["rnmm-pipeline", *_SHARED, *_PLANTED, "--eps-rnmm", "0.3"],
    "phi-scaling": ["phi-scaling", *_SHARED, "--synthetic", "heavy", "--dim", "3",
                    "--classes", "2", "--tail-k", "2", "--moment-k", "2",
                    "--n-list", "120,480", "--eta-grid", "0.1"],
    "lower-bound-demo": ["lower-bound-demo", *_SHARED, "--dim", "2", "--n", "150",
                         "--qv-p", "0.2", "--moment-k", "2"],
    # c08's data and budget at a quarter of its rows; its p0 clips rows, so
    # the logistic clipped sum runs its rank-one gemm
    "sweep-clip-c08": ["sweep-clip", "--master-seed", "0", "--seeds", "0,1,2,3",
                       "--synthetic", "planted", "--n", "500", "--dim", "20",
                       "--classes", "3", "--norm-low", "0.4", "--norm-high", "8",
                       "--append-bias", "--epsilon", "2", "--delta", "1e-5",
                       "--iterations", "100", "--batch", "25", "--eta-grid", "0.1,0.3,1",
                       "--clip-candidates", "p0,p100"],
    # c12's data, schedule and budget at a quarter of its sizes
    "phi-scaling-c12": ["phi-scaling", "--master-seed", "0", "--seeds", "0,1,2,3",
                        "--synthetic", "heavy", "--dim", "4", "--classes", "2",
                        "--tail-k", "2", "--moment-k", "2", "--gamma", "0.5",
                        "--growth-c", "10", "--epsilon", "0.5", "--delta", "1e-5",
                        "--iterations", "100", "--batch", "25",
                        "--n-list", "125,500,2000", "--append-bias"],
}


@pytest.mark.filterwarnings("ignore::dpclip.privacy.PrivacyRegimeWarning")
@pytest.mark.parametrize("pin", list(ARGV))
def test_command_output_matches_its_expected_csv(tmp_path, pin):
    out = tmp_path / f"{pin}.csv"
    assert main([*ARGV[pin], "--out", str(out)]) == 0
    assert csv_differences(EXPECTED / f"{pin}.csv", out) == []


def test_csv_differences_holds_floats_to_the_tolerance_and_the_rest_exactly(tmp_path):
    expected = tmp_path / "expected.csv"
    expected.write_text("tau,tau_kind,eta_best,mean_metric\n1.5,percentile,0.3,nan\n")

    def differences(row):
        actual = tmp_path / "actual.csv"
        actual.write_text(f"tau,tau_kind,eta_best,mean_metric\n{row}\n")
        return csv_differences(expected, actual)

    assert differences("1.5000000000000007,percentile,0.3,nan") == []
    assert differences("1.5000000001,percentile,0.3,nan") == [
        "row 1 tau: 1.5000000001 != 1.5"
    ]
    assert differences("1.5,absolute,0.30000000000000004,0.0") == [
        "row 1 tau_kind: absolute != percentile",
        "row 1 eta_best: 0.30000000000000004 != 0.3",
        "row 1 mean_metric: 0.0 != nan",
    ]
    assert differences("1.5,percentile,0.3") == ["row 1 has 3 fields, not 4"]


def test_array_differences_holds_each_element_to_its_scale():
    # the CSV rule on arrays: by default relative to the larger magnitude,
    # or to a given scale, such as the magnitudes a sum adds before it cancels
    expected = np.array([[1.5, -2.0], [0.0, np.nan]])
    assert array_differences(expected, expected + [[1e-15, 0.0], [1e-16, 0.0]]) == []
    assert array_differences(expected, expected + [[1e-9, 0.0], [0.0, 0.0]]) == [
        "[0, 0]: 1.500000001 != 1.5"
    ]
    cancelled = np.array([1e-10])
    assert array_differences(cancelled, cancelled + 1e-14) == ["[0]: 1.0001e-10 != 1e-10"]
    assert array_differences(cancelled, cancelled + 1e-14, scale=[1e3]) == []
    assert array_differences([1e-300], [0.0], abs_tol=1e-308) == ["[0]: 0.0 != 1e-300"]
    assert array_differences([1e-300], [0.0], abs_tol=1e-299) == []
    assert array_differences([np.inf, np.nan], [np.inf, np.nan]) == []
    assert array_differences([np.inf], [1e308]) == ["[0]: 1e+308 != inf"]
    assert array_differences(np.zeros(2), np.zeros(3)) == ["shape (3,) != (2,)"]


if __name__ == "__main__":
    for pin, argv in ARGV.items():
        main([*argv, "--out", str(EXPECTED / f"{pin}.csv")])
