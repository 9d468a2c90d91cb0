"""Experiment configuration: JSON schema, defaults, and validation.

A config file is one JSON object.  Required: "dictionary" (list of
vectors, one per row) and either "tau" (scalar) or "tau_grid" (list).
Optional, with defaults:

    fidelity           {"kind": "l2"}     norm for the approximation residual
    data               {"kind": "l2"}     norm whose ball is sampled/measured
    theta              1.0                data-ball radius
    K / K_list         all of 0..N        sparsity levels
    quantities         all five           subset of measure_leq, measure_eq,
                                          prob_leq, prob_eq, expect
    samples            100000             Monte Carlo draws per estimate, and
                                          for the volume constants that have
                                          no exact value (wlp with p > 1)
    seed               42                 base seed for all streams
    span_tol           1e-9               rank tolerance of the spanning check, span
                                          families, pair dimensions and overlaps
    threads            1                  worker threads for sampling and distance
                                          profiles (never affects results; the
                                          solver's stacked table grows only in the
                                          calling thread, before any worker
                                          starts); volume constants run in the
                                          calling thread

theta, tau, the tau_grid entries and span_tol must be finite and
positive.  The solver's slack on tau and its Newton stopping tolerance are
the constants ``solver.FEAS_TOL`` and ``solver.DIST_TOL``, not keys, so a
config naming either is refused as an unknown key.  ``load_config``
writes its overrides (the command line's --seed, --threads and
--samples) under their keys before any check, so each setting is checked
once, by ``config_from_dict``, wherever it came from.

Estimates and validation rows both come in cell order: quantity, then K,
then tau.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .norms import NormSpec
from .solver import DIST_TOL, FEAS_TOL
from .subspaces import DEFAULT_SPAN_TOL, Dictionary


class ConfigError(ValueError):
    """Raised for a malformed or inconsistent configuration."""


class Quantity(str, Enum):
    """What a bound or estimate refers to.

    Measures are Lebesgue volumes inside the data ball of radius theta;
    probabilities divide by that ball's volume; expect is the mean
    smallest-support value under the uniform distribution on the ball.
    """

    MEASURE_LEQ = "measure_leq"
    MEASURE_EQ = "measure_eq"
    PROB_LEQ = "prob_leq"
    PROB_EQ = "prob_eq"
    EXPECT = "expect"


_KNOWN_KEYS = {
    "dictionary", "fidelity", "data", "theta", "tau", "tau_grid", "K", "K_list",
    "quantities", "samples", "seed", "span_tol", "threads",
}


@dataclass(frozen=True)
class ExperimentConfig:
    dictionary: Dictionary
    fidelity: NormSpec
    data: NormSpec
    theta: float
    tau_grid: tuple[float, ...]
    K_list: tuple[int, ...]
    quantities: tuple[Quantity, ...]
    n_samples: int
    seed: int
    threads: int

    @property
    def span_tol(self) -> float:
        return self.dictionary.span_tol

    # The solver's constants, not fields: perfbench reads them here and
    # passes them to L0Solver and values_from_profiles positionally.
    feas_tol = FEAS_TOL
    dist_tol = DIST_TOL


def positive_number(value: Any, name: str) -> float:
    """``value`` as a float if it is a real number in (0, inf), else a ConfigError naming ``name``.

    The upper bound also refuses an integer too large to become a float.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        0 < value <= sys.float_info.max
    ):
        raise ConfigError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def _positive(obj: dict[str, Any], key: str, default: float) -> float:
    return positive_number(obj.get(key, default), f"'{key}'")


def _positive_int(obj: dict[str, Any], key: str, default: int) -> int:
    value = obj.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"'{key}' must be a positive integer, got {value!r}")
    return value


def config_from_dict(obj: dict[str, Any]) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"config must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "dictionary" not in obj:
        raise ConfigError("config needs a 'dictionary' field")

    span_tol = _positive(obj, "span_tol", DEFAULT_SPAN_TOL)
    try:
        dictionary = Dictionary.from_vectors(obj["dictionary"], span_tol=span_tol)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"bad dictionary: {err}") from err
    n = dictionary.n_dim

    try:
        fidelity = NormSpec.from_dict(obj.get("fidelity", {"kind": "l2"}))
        data = NormSpec.from_dict(obj.get("data", {"kind": "l2"}))
    except ValueError as err:
        raise ConfigError(f"bad norm spec: {err}") from err
    for label, spec in (("fidelity", fidelity), ("data", data)):
        if spec.kind == "wlp" and len(spec.weights) != n:
            raise ConfigError(
                f"{label} norm has {len(spec.weights)} weights, dictionary dimension is {n}"
            )

    if "tau" in obj and "tau_grid" in obj:
        raise ConfigError("give either 'tau' or 'tau_grid', not both")
    if "tau" in obj:
        tau_grid = (_positive(obj, "tau", 0.0),)
    elif "tau_grid" in obj:
        grid = obj["tau_grid"]
        if not isinstance(grid, list) or not grid:
            raise ConfigError("'tau_grid' must be a nonempty list")
        tau_grid = tuple(positive_number(t, "each 'tau_grid' entry") for t in grid)
    else:
        raise ConfigError("config needs 'tau' or 'tau_grid'")

    theta = _positive(obj, "theta", 1.0)

    if "K" in obj and "K_list" in obj:
        raise ConfigError("give either 'K' or 'K_list', not both")
    if "K" in obj:
        raw_levels = [obj["K"]]
    elif "K_list" in obj:
        raw_levels = obj["K_list"]
        if not isinstance(raw_levels, list) or not raw_levels:
            raise ConfigError("'K_list' must be a nonempty list")
    else:
        raw_levels = list(range(n + 1))
    for k in raw_levels:
        if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= n:
            raise ConfigError(f"sparsity levels must be integers in [0, {n}], got {k!r}")
    K_list = tuple(raw_levels)

    raw_quantities = obj.get("quantities", [q.value for q in Quantity])
    if not isinstance(raw_quantities, list) or not raw_quantities:
        raise ConfigError("'quantities' must be a nonempty list")
    try:
        quantities = tuple(Quantity(q) for q in raw_quantities)
    except ValueError as err:
        raise ConfigError(
            f"unknown quantity; expected one of {[q.value for q in Quantity]}: {err}"
        ) from err

    seed = obj.get("seed", 42)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"'seed' must be a nonnegative integer, got {seed!r}")
    return ExperimentConfig(
        dictionary=dictionary,
        fidelity=fidelity,
        data=data,
        theta=theta,
        tau_grid=tau_grid,
        K_list=K_list,
        quantities=quantities,
        n_samples=_positive_int(obj, "samples", 100_000),
        seed=seed,
        threads=_positive_int(obj, "threads", 1),
    )


def load_config(path: str, **overrides: Any) -> ExperimentConfig:
    """The config at ``path``, each non-None override written under its key first."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if isinstance(obj, dict):
        obj.update((key, value) for key, value in overrides.items() if value is not None)
    return config_from_dict(obj)
