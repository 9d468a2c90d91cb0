"""Command line interface.

Subcommands:
    solve      smallest support for one data vector (JSON)
    spans      span family and pair listing at one level (JSON)
    constants  constant sets for the configured levels (CSV)
    estimate   Monte Carlo estimates for the configured cells (CSV)
    validate   estimates against analytic bounds, pass/fail matrix (CSV)

Exit codes: 0 success (and, for validate, no failed cells); 2 validate
found failing cells; 1 any error.  --seed, --threads and --samples
replace the config's seed, threads and samples keys before the config is
checked, so a bad flag value is refused with the config key's message.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import sizes
from .bounds import (
    assemble_constants,
    bound_levels,
    constants_to_csv,
    gate_factors,
    validation_cells,
)
from .config import ConfigError, ExperimentConfig, load_config, positive_number
from .montecarlo import LevelSetExperiment, estimates_to_csv, report_to_csv, validate_bounds
from .solver import L0Solver, span_family
from .subspaces import enumerate_pairs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l0geom",
        description="Smallest-support solver, span families, bound constants, "
        "and Monte Carlo validation",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, help="path to JSON config")
    shared.add_argument("--output", help="write result here instead of stdout")
    shared.add_argument("--seed", type=int, help="override config seed")
    shared.add_argument("--threads", type=int, help="override worker thread count")
    shared.add_argument("--samples", type=int, help="override Monte Carlo sample count")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[shared], help=summary)
        p.set_defaults(run=run)
        return p

    p_solve = command("solve", _cmd_solve, "solve one data vector")
    p_solve.add_argument("--data", required=True, help="comma-separated data vector")
    p_solve.add_argument("--tau", type=float, help="tolerance (default: first config tau)")
    p_spans = command("spans", _cmd_spans, "list the span family at one level")
    p_spans.add_argument("--level", type=int, required=True, help="subset size K")
    command("constants", _cmd_constants, "constant sets for configured levels")
    command("estimate", _cmd_estimate, "Monte Carlo estimates for configured cells")
    command("validate", _cmd_validate, "estimates versus analytic bounds")
    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cmd_solve(config: ExperimentConfig, args: argparse.Namespace) -> int:
    try:
        data = np.array([float(part) for part in args.data.split(",")])
    except ValueError as err:
        raise ConfigError(f"--data must be comma-separated reals: {err}") from err
    if data.size != config.dictionary.n_dim:
        raise ConfigError(
            f"--data has {data.size} entries, dictionary dimension is "
            f"{config.dictionary.n_dim}"
        )
    tau = config.tau_grid[0] if args.tau is None else positive_number(args.tau, "--tau")
    result = L0Solver(config.dictionary, config.fidelity).solve(data, tau)
    _emit(
        _json(
            {
                "value": result.value,
                "support": list(result.support),
                "coefficients": list(result.coefficients),
                "residual": result.residual,
                "tau": tau,
            }
        ),
        args.output,
    )
    return 0


def _cmd_spans(config: ExperimentConfig, args: argparse.Namespace) -> int:
    n = config.dictionary.n_dim
    if not 0 <= args.level <= n:
        raise ConfigError(f"--level must lie in [0, {n}], got {args.level}")
    family = span_family(config.dictionary, args.level)
    pairs = {
        str(k): enumerate_pairs(family, k).tolist()
        for k in range(max(0, 2 * args.level - n), args.level)
    }
    _emit(
        _json(
            {
                "K": args.level,
                "ambient_dim": n,
                "members": [
                    {"index": i, "atoms": list(member.provenance)}
                    for i, member in enumerate(family.members)
                ],
                "pairs": pairs,
            }
        ),
        args.output,
    )
    return 0


def _cmd_constants(config: ExperimentConfig, args: argparse.Namespace) -> int:
    sizes.check_run(config.dictionary, config.fidelity, config.data, constants=config.K_list)
    sets = [
        assemble_constants(
            config.dictionary, config.fidelity, config.data, k,
            n_samples=config.n_samples, seed=config.seed,
        )
        for k in config.K_list
    ]
    _emit(constants_to_csv(sets), args.output)
    return 0


def _cmd_estimate(config: ExperimentConfig, args: argparse.Namespace) -> int:
    experiment = LevelSetExperiment(
        config.dictionary, config.fidelity, config.data, config.theta, config.n_samples,
        config.seed, workers=config.threads,
    )
    cells = validation_cells(config.quantities, config.K_list, config.tau_grid)
    _emit(estimates_to_csv(experiment.estimate(*cell) for cell in cells), args.output)
    return 0


def _cmd_validate(config: ExperimentConfig, args: argparse.Namespace) -> int:
    # Surface validity problems before any long computation: the gates only
    # need the norm comparison constants, never Monte Carlo.  A tau is listed
    # when some cell at it will be flagged, that is when theta is below the
    # largest gate of the levels the cells use.
    n = config.dictionary.n_dim
    worst_gate = max(
        gate_factors(config.fidelity, config.data, n, k)[2]
        for k in bound_levels(config.quantities, config.K_list, n)
    )
    bad = [tau for tau in config.tau_grid if config.theta < worst_gate * tau]
    if bad:
        sys.stderr.write(
            f"warning: theta={config.theta} is below the validity gate "
            f"{worst_gate} * tau for tau in {bad}; those cells will be "
            "flagged, not checked\n"
        )

    report = validate_bounds(
        config.dictionary, config.fidelity, config.data, config.tau_grid,
        config.theta, config.K_list, quantities=config.quantities,
        n_samples=config.n_samples, seed=config.seed, workers=config.threads,
    )
    _emit(report_to_csv(report), args.output)
    if report.n_fail:
        sys.stderr.write(f"{report.n_fail} of {len(report.rows)} cells failed\n")
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(
            args.config, seed=args.seed, threads=args.threads, samples=args.samples
        )
        return args.run(config, args)
    except (ConfigError, ValueError, OSError, RuntimeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
