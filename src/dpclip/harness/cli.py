"""Command-line front end.

Subcommands: sweep-clip, rnmm-pipeline, phi-scaling, bias-oracle,
lower-bound-demo. Flags mirror the experiment spec fields; ``--config FILE``
loads the same keys from JSON, with explicit flags taking precedence.

Exit codes: 0 success, 1 validation error, 2 assertion/oracle failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from typing import Literal, get_args, get_origin

from .commands import COMMANDS
from .spec import ExperimentSpec, OracleFailure, SpecValidationError, field_type


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the harness reserves 2 for
    # oracle failures, so usage problems map to the validation code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _tokens(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


_TUPLE_PARSERS = {int: _ints, float: _floats, str: _tokens}

# the flags of each command, in --help order; every name but "config" is an
# ExperimentSpec field, whose annotation gives the flag its type
_OUTPUT = ("out", "config", "master_seed")
_DP_SGD = ("seeds", "epsilon", "delta", "iterations", "batch", "no_noise")
_SYNTHETIC = ("append_bias", "synthetic", "dim", "classes", "tail_k")
_DATASET = (*_SYNTHETIC, "csv", "test_csv", "n", "norm_low", "norm_high")
# of the dataset fields, a --csv dataset reads only these
_CSV_READS = {"csv", "test_csv", "append_bias"}

COMMAND_FIELDS = {
    "sweep-clip": (*_OUTPUT, *_DP_SGD, "eta_grid", *_DATASET, "clip_candidates"),
    "rnmm-pipeline": (*_OUTPUT, *_DP_SGD, "eta_grid", *_DATASET, "eps_rnmm", "rnmm_clamp"),
    # the step size comes from the schedule, and the data is always heavy-tailed
    # synthetic; eta_grid and synthetic are still accepted so existing
    # invocations keep working
    "phi-scaling": (
        *_OUTPUT, *_DP_SGD, "eta_grid", *_SYNTHETIC, "n_list", "moment_k", "gamma", "growth_c"
    ),
    "bias-oracle": (*_OUTPUT, "count", "p_list"),
    "lower-bound-demo": (
        *_OUTPUT, *_DP_SGD, "dim", "n", "qv_p", "moment_k", "gamma", "growth_c"
    ),
}

_HELP = {
    "sweep-clip": "clip-norm sweep with eta tuning",
    "rnmm-pipeline": "private G_min selection then DP-SGD",
    "phi-scaling": "risk vs dataset size study",
    "bias-oracle": "clipping-bias bound chain checks",
    "lower-bound-demo": "two-atom hard instance demo",
    "out": "output CSV path",
    "config": "JSON file with spec fields (flags win)",
    "seeds": "comma-separated run seeds",
    "iterations": "DP-SGD steps T",
    "batch": "expected batch size b",
    "no_noise": "force sigma^2 = 0 (non-private debugging runs)",
    "csv": "training CSV: d floats then an integer label",
    "test_csv": "held-out CSV for accuracy",
    "clip_candidates": 'comma list of "pQ" percentiles, absolute values or "inf"',
}


def _flag_options(name: str) -> dict:
    """add_argument options for a field, from its ExperimentSpec annotation."""
    if name == "config":
        return {}
    kind = field_type(name)
    if get_origin(kind) is Literal:
        return {"choices": get_args(kind)}
    if get_origin(kind) is tuple:
        return {"type": _TUPLE_PARSERS[get_args(kind)[0]]}
    if kind is bool and name.startswith("no_"):
        # already a negation, so a plain switch; default None, not False, so
        # that a --config value applies when the flag is absent
        return {"action": "store_true", "default": None}
    if kind is bool:
        return {"action": argparse.BooleanOptionalAction}
    return {"type": kind}


def build_parser() -> _Parser:
    parser = _Parser(prog="dpclip", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, names in COMMAND_FIELDS.items():
        sub = subs.add_parser(command, help=_HELP[command])
        for name in names:
            flag = "--" + name.replace("_", "-")
            sub.add_argument(flag, help=_HELP.get(name), **_flag_options(name))
    return parser


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Merge CLI flags over JSON config over dataclass defaults.

    Config keys obey the subcommand's own flags, so a field the command never
    reads is rejected whichever way it is given; ExperimentSpec checks each
    value's type.
    """
    reads = set(COMMAND_FIELDS[args.command]) - {"config"}
    merged: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise SpecValidationError("config file must hold a JSON object")
        merged.update(loaded)
    merged.update((k, v) for k, v in vars(args).items() if k in reads and v is not None)
    unknown = set(merged) - reads
    if unknown:
        raise SpecValidationError(f"{args.command} does not read: {sorted(unknown)}")
    if merged.get("csv") is not None:
        ignored = sorted((set(_DATASET) - _CSV_READS) & set(merged))
        if ignored:
            raise SpecValidationError(f"--csv data ignores the synthetic fields {ignored}")
    return ExperimentSpec(command=args.command, **merged)


def _check_out(path: str) -> None:
    """Raise the error writing the output CSV to ``path`` would raise, where
    it is certain before any work: ``path`` is a directory, or its nearest
    existing ancestor is not one."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), parent)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        spec = build_spec(args)
        _check_out(spec.out)
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
