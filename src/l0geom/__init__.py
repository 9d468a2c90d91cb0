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

from .bounds import (
    BoundReport,
    ConstantSet,
    Quantity,
    assemble_constants,
    bound_report,
    constants_to_csv,
    cylinder_constant,
    euclid_ck,
    overlap_budget,
    overlap_cap,
    overlap_constant,
    projected_ball_volume,
    slice_volume,
)
from .config import ConfigError, ExperimentConfig, config_from_dict, load_config
from .montecarlo import (
    FitResult,
    LevelSetExperiment,
    MCEstimate,
    ValidationReport,
    ValidationRow,
    fit_asymptote,
    report_to_csv,
    validate_bounds,
    wilson_half_width,
)
from .norms import (
    EquivConstants,
    NormSpec,
    VolumeEstimate,
    ball_volume,
    compute_equiv_constants,
    equivalence_constant,
    euclid_ball_volume,
    norm_eval,
)
from .sampling import sample_levelset, sample_levelset_batch
from .solver import (
    ConvergenceError,
    L0Solver,
    SolveResult,
    dual_vertices,
    member_distances,
    solve_l0,
    subspace_distance,
    values_from_profiles,
)
from .subspaces import (
    Dictionary,
    SpanFamily,
    SubspaceBasis,
    empty_basis,
    enumerate_pairs,
    enumerate_spans,
    intersection_basis,
    intersection_dim,
    orthonormal_basis,
    spans_equal,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "ConfigError", "ConstantSet", "ConvergenceError", "Dictionary",
    "EquivConstants", "ExperimentConfig", "FitResult", "L0Solver", "LevelSetExperiment",
    "MCEstimate", "NormSpec", "Quantity", "SolveResult", "SpanFamily", "SubspaceBasis",
    "ValidationReport", "ValidationRow", "VolumeEstimate", "assemble_constants", "ball_volume",
    "bound_report", "compute_equiv_constants", "config_from_dict", "constants_to_csv",
    "cylinder_constant", "dual_vertices", "empty_basis", "enumerate_pairs", "enumerate_spans",
    "equivalence_constant", "euclid_ball_volume", "euclid_ck", "fit_asymptote",
    "intersection_basis", "intersection_dim", "load_config", "member_distances", "norm_eval",
    "orthonormal_basis", "overlap_budget", "overlap_cap", "overlap_constant",
    "projected_ball_volume", "report_to_csv", "sample_levelset", "sample_levelset_batch",
    "slice_volume", "solve_l0", "spans_equal", "subspace_distance", "validate_bounds",
    "values_from_profiles", "wilson_half_width",
]
