"""Experiment specification: the inputs of a run, from CLI flags or a direct call."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from types import UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints

from ..privacy import PrivacyBudget


class SpecValidationError(ValueError):
    """Bad experiment configuration; maps to exit code 1."""


class OracleFailure(RuntimeError):
    """A verification oracle failed; maps to exit code 2."""


DEFAULT_ETA_GRID = (0.01, 0.03, 0.1, 0.3, 1.0)


@dataclass
class ExperimentSpec:
    """Resolved inputs of one harness command.

    Each field's annotation is its only declaration: the CLI makes a flag of
    it, and every value, from a flag or a direct call, is checked against it
    and stored as that type (a float field takes 10 as 10.0, a tuple field
    takes a list) before any command starts. No float may be infinite,
    except where inf is the field's sentinel. The seeds, output path,
    privacy budget, DP-SGD controls and test_csv's need of csv are checked
    here too; other fields are validated by the command that reads them.
    """

    command: str
    out: str = ""
    master_seed: int = 0
    seeds: tuple[int, ...] = (0,)

    # dataset source: a CSV path or a synthetic generator
    csv: str | None = None
    test_csv: str | None = None
    append_bias: bool = False
    synthetic: Literal["planted", "heavy"] | None = None
    n: int = 2000
    dim: int = 20
    classes: int = 3
    norm_low: float = 1.0
    norm_high: float = 1.0
    tail_k: float = 2.0

    # privacy budget
    epsilon: float = 2.0
    delta: float = 1e-5

    # DP-SGD controls
    iterations: int = 200
    batch: float = 50.0
    eta_grid: tuple[float, ...] = DEFAULT_ETA_GRID
    no_noise: bool = False

    # sweep-clip
    clip_candidates: tuple[str, ...] = ("p0", "p100")

    # rnmm-pipeline
    eps_rnmm: float | None = None
    rnmm_clamp: float | None = None

    # phi-scaling
    n_list: tuple[int, ...] = (500, 2000, 8000)
    moment_k: float = 2.0
    gamma: float = 0.5
    growth_c: float = 1.0

    # bias-oracle
    count: int = 200
    p_list: tuple[float, ...] = (1.5, 2.0, 3.0)

    # lower-bound-demo
    qv_p: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, _conform(f, getattr(self, f.name)))
        if not self.seeds:
            raise SpecValidationError("seeds must be nonempty")
        if self.master_seed < 0 or any(s < 0 for s in self.seeds):
            raise SpecValidationError("seeds must be nonnegative integers")
        repeated = [s for i, s in enumerate(self.seeds) if s in self.seeds[:i]]
        if repeated:
            raise SpecValidationError(f"seeds must be distinct; seed {repeated[0]} is repeated")
        try:
            PrivacyBudget(self.epsilon, self.delta)
        except ValueError as exc:
            raise SpecValidationError(str(exc)) from None
        if not self.out:
            raise SpecValidationError("an output path is required")
        if self.iterations < 1:
            raise SpecValidationError("iterations must be >= 1")
        if not self.batch > 0:
            raise SpecValidationError("batch must be positive")
        if not self.eta_grid or not all(eta >= 0 for eta in self.eta_grid):
            raise SpecValidationError("eta grid must be nonempty and nonnegative")
        if self.test_csv is not None and self.csv is None:
            raise SpecValidationError("test_csv is a held-out split of --csv data; give --csv too")


_TYPES = get_type_hints(ExperimentSpec)


def field_type(name: str):
    """The declared type of an ExperimentSpec field, without its ``| None``."""
    kind = _TYPES[name]
    if get_origin(kind) in (Union, UnionType):
        (kind,) = set(get_args(kind)) - {type(None)}
    return kind


# what each scalar type accepts; bool is an int to Python, but never here
_ACCEPTS = {int: numbers.Integral, float: numbers.Real, str: str, bool: bool}


def _as(kind, value):
    """``value`` as ``kind``; ``TypeError`` if it is not of that type.

    An int passes as a float, a list as a tuple and a numpy scalar as its
    Python type, but a bool is never a number and a number never a string.
    """
    origin = get_origin(kind)
    if origin is tuple:
        if isinstance(value, (tuple, list)):
            return tuple(_as(get_args(kind)[0], item) for item in value)
    elif origin is Literal:
        if value in get_args(kind):
            return value
    elif isinstance(value, _ACCEPTS[kind]) and isinstance(value, bool) == (kind is bool):
        return kind(value)
    raise TypeError


# inf is the documented sentinel of these float fields: unit radii for the
# heavy-tailed data, a non-private selection for report noisy max
_INF_SENTINELS = {"tail_k", "eps_rnmm"}


def _conform(f, value):
    if value is None and type(None) in get_args(_TYPES[f.name]):
        return None
    try:
        value = _as(field_type(f.name), value)
    except TypeError:
        raise SpecValidationError(f"{f.name} must be {f.type}, got {value!r}") from None
    items = value if isinstance(value, tuple) else (value,)
    if f.name not in _INF_SENTINELS and any(
        isinstance(v, float) and math.isinf(v) for v in items
    ):
        hint = "; --no-noise runs without noise" if f.name == "epsilon" else ""
        raise SpecValidationError(f"{f.name} must be finite, got {value!r}{hint}")
    return value
