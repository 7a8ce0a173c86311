"""Output pins: each DP-SGD command, rerun at the c13 acceptance argv, writes
its CSV in ``tests/data/expected/`` to within ``csv_compare``'s tolerance.

An output change shows as a diff to those files in the change that makes it.
Re-record them, after a declared output change only, with

    PYTHONPATH=src python tests/test_output_pins.py
"""

from pathlib import Path

import pytest

from csv_compare import csv_differences
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
}


@pytest.mark.filterwarnings("ignore::dpclip.privacy.PrivacyRegimeWarning")
@pytest.mark.parametrize("command", list(ARGV))
def test_command_output_matches_its_expected_csv(tmp_path, command):
    out = tmp_path / f"{command}.csv"
    assert main([*ARGV[command], "--out", str(out)]) == 0
    assert csv_differences(EXPECTED / f"{command}.csv", out) == []


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


if __name__ == "__main__":
    for command, argv in ARGV.items():
        main([*argv, "--out", str(EXPECTED / f"{command}.csv")])
