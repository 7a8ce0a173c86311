"""Command-line front end.

Subcommands: sweep-clip, rnmm-pipeline, phi-scaling, bias-oracle,
lower-bound-demo. Flags mirror the experiment spec fields; ``--config FILE``
loads the same keys from JSON, with explicit flags taking precedence.

Exit codes: 0 success, 1 validation error, 2 assertion/oracle failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .commands import COMMANDS
from .spec import ExperimentSpec, OracleFailure, SpecValidationError


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the harness reserves 2 for
    # oracle failures, so usage problems map to the validation code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._exit_with(message))

    def _exit_with(self, message) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _tokens(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="output CSV path")
    sub.add_argument("--config", help="JSON file with spec fields (flags win)")
    sub.add_argument("--master-seed", type=int, dest="master_seed")


def _add_dp_sgd(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seeds", type=_ints, help="comma-separated run seeds")
    sub.add_argument("--epsilon", type=float)
    sub.add_argument("--delta", type=float)
    sub.add_argument("--nu", type=float)
    sub.add_argument("--iterations", type=int, help="DP-SGD steps T")
    sub.add_argument("--batch", type=float, help="expected batch size b")
    # default None, not False, so that a --config value applies when the flag is absent
    sub.add_argument(
        "--no-noise", action="store_true", default=None, dest="no_noise",
        help="force sigma^2 = 0 (non-private debugging runs)",
    )


def _add_synthetic(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--append-bias", action=argparse.BooleanOptionalAction, dest="append_bias"
    )
    sub.add_argument("--synthetic", choices=["planted", "heavy"])
    sub.add_argument("--dim", type=int)
    sub.add_argument("--classes", type=int)
    sub.add_argument("--tail-k", type=float, dest="tail_k")


def _add_dataset(sub: argparse.ArgumentParser) -> None:
    _add_synthetic(sub)
    sub.add_argument("--csv", help="training CSV: d floats then an integer label")
    sub.add_argument("--test-csv", dest="test_csv", help="held-out CSV for accuracy")
    sub.add_argument("--n", type=int)
    sub.add_argument("--norm-low", type=float, dest="norm_low")
    sub.add_argument("--norm-high", type=float, dest="norm_high")


def _add_eta_grid(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--eta-grid", type=_floats, dest="eta_grid")


def build_parser() -> _Parser:
    parser = _Parser(prog="dpclip", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sweep = subs.add_parser("sweep-clip", help="clip-norm sweep with eta tuning")
    for add in (_add_output, _add_dp_sgd, _add_eta_grid, _add_dataset):
        add(sweep)
    sweep.add_argument(
        "--clip-candidates", type=_tokens, dest="clip_candidates",
        help='comma list of "pQ" percentiles, absolute values or "inf"',
    )

    rnmm = subs.add_parser("rnmm-pipeline", help="private G_min selection then DP-SGD")
    for add in (_add_output, _add_dp_sgd, _add_eta_grid, _add_dataset):
        add(rnmm)
    rnmm.add_argument("--eps-rnmm", type=float, dest="eps_rnmm")
    rnmm.add_argument("--rnmm-clamp", type=float, dest="rnmm_clamp")

    # the step size comes from the schedule, and the data is always heavy-tailed
    # synthetic; --eta-grid and --synthetic are still accepted so existing
    # invocations keep working
    phis = subs.add_parser("phi-scaling", help="risk vs dataset size study")
    for add in (_add_output, _add_dp_sgd, _add_eta_grid, _add_synthetic):
        add(phis)
    phis.add_argument("--n-list", type=_ints, dest="n_list")
    phis.add_argument("--moment-k", type=float, dest="moment_k")
    phis.add_argument("--gamma", type=float)
    phis.add_argument("--growth-c", type=float, dest="growth_c")

    bias = subs.add_parser("bias-oracle", help="clipping-bias bound chain checks")
    _add_output(bias)
    bias.add_argument("--count", type=int)
    bias.add_argument("--p-list", type=_floats, dest="p_list")

    lb = subs.add_parser("lower-bound-demo", help="two-atom hard instance demo")
    _add_output(lb)
    _add_dp_sgd(lb)
    lb.add_argument("--dim", type=int)
    lb.add_argument("--n", type=int)
    lb.add_argument("--qv-p", type=float, dest="qv_p")
    lb.add_argument("--moment-k", type=float, dest="moment_k")
    lb.add_argument("--gamma", type=float)
    lb.add_argument("--growth-c", type=float, dest="growth_c")

    return parser


# the synthetic-data fields, which a --csv dataset leaves unread
_SYNTHETIC_ONLY = {"synthetic", "n", "dim", "classes", "norm_low", "norm_high", "tail_k"}


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Merge CLI flags over JSON config over dataclass defaults.

    Config keys obey the subcommand's own flags, so a field the command never
    reads is rejected whichever way it is given.
    """
    merged: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise SpecValidationError("config file must hold a JSON object")
        merged.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            merged[key] = value
    unknown = set(merged) - (set(vars(args)) - {"command", "config"})
    if unknown:
        raise SpecValidationError(f"{args.command} does not read: {sorted(unknown)}")
    if merged.get("csv") is not None:
        ignored = sorted(_SYNTHETIC_ONLY & set(merged))
        if ignored:
            raise SpecValidationError(f"--csv data ignores the synthetic fields {ignored}")
    for key in ("seeds", "eta_grid", "clip_candidates", "n_list", "p_list"):
        if key in merged and not isinstance(merged[key], tuple):
            merged[key] = tuple(merged[key])
    return ExperimentSpec(command=args.command, **merged)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        spec = build_spec(args)
        COMMANDS[spec.command](spec)
        return 0
    except OracleFailure as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 2
    except (SpecValidationError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
