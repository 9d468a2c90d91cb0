"""Geometry of sparse-approximation level sets.

Given a finite dictionary spanning R^N, a fidelity norm for the residual,
and a data norm for the ambient ball, this package provides:

  - the exact smallest-support solver and its feasibility predicates,
  - enumeration of the distinct subspaces spanned by atom subsets,
  - volume constants (closed form or Monte Carlo) and two-sided analytic
    bounds on how much data is approximable with K atoms,
  - reproducible Monte Carlo estimates that validate those bounds,
  - a command line front end (``l0geom``) over JSON configs.
"""

__version__ = "0.1.0"

# Each exported name under the submodule that defines it.  A submodule loads
# the first time one of its names is read, so a caller that only solves
# never loads the bounds, Monte Carlo or random-number layers.
_EXPORTS = {
    "bounds": (
        "BoundReport", "ConstantSet", "assemble_constants", "bound_report", "constants_to_csv",
        "euclid_ck", "overlap_budget", "overlap_constant", "projected_ball_volume",
        "slice_volume",
    ),
    "config": ("ConfigError", "ExperimentConfig", "Quantity", "config_from_dict", "load_config"),
    "montecarlo": (
        "FitResult", "LevelSetExperiment", "MCEstimate", "ValidationReport", "ValidationRow",
        "fit_asymptote", "report_to_csv", "validate_bounds", "wilson_half_width",
    ),
    "norms": (
        "EquivConstants", "NormSpec", "VolumeEstimate", "ball_volume", "compute_equiv_constants",
        "equivalence_constant", "euclid_ball_volume", "norm_eval",
    ),
    "sampling": ("sample_levelset", "sample_levelset_batch"),
    "solver": (
        "ConvergenceError", "L0Solver", "SolveResult", "dual_vertices", "member_distances",
        "solve_l0", "subspace_distance", "values_from_profiles",
    ),
    "subspaces": (
        "Dictionary", "SpanFamily", "SubspaceBasis", "empty_basis", "enumerate_pairs",
        "enumerate_spans", "intersection_basis", "intersection_dim", "orthonormal_basis",
        "spans_equal",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    """Load an exported name's submodule and keep the name here (PEP 562)."""
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, so -X importtime lists the submodule.
    value = getattr(__import__(f"{__name__}.{_ORIGIN[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
