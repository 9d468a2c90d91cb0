"""Monte Carlo estimation and validation of the analytic bounds.

One batch of uniform draws from the data ball serves every cell of a
validation run.  Each sample's distance profile (nearest size-k span for
every k) is computed once; after that, any tolerance tau prices the whole
batch by thresholding, so probabilities across K, tau, and all five
quantities share common random numbers and stay mutually consistent:
frequencies sum to one over K, are monotone in K, and the mean value
matches the expectation identity by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import sizes
from .bounds import (
    Z95,
    ConstantSet,
    _csv,
    assemble_constants,
    bound_levels,
    bound_report,
    report_levels,
    validation_cells,
)
from .config import Quantity
from .norms import NormSpec, VolumeEstimate, ball_volume
from .sampling import sample_levelset_batch
from .solver import L0Solver, threshold, values_from_profiles
from .subspaces import Dictionary

# Standard errors of slack a validation cell's sandwich allows (``validate_bounds``).
_SIGMA_RULE = 3.0


def wilson_half_width(p_hat: float, n: int) -> float:
    """Half width of the 95% Wilson score interval for a binomial rate."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    z2 = Z95 * Z95
    return (
        Z95
        * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n))
        / (1.0 + z2 / n)
    )


@dataclass(frozen=True)
class MCEstimate:
    """One Monte Carlo estimate with a 95% confidence half width."""

    quantity: Quantity
    K: int | None
    tau: float
    theta: float
    mean: float
    half_width_95: float
    n_samples: int
    seed: int

    @property
    def std_err(self) -> float:
        return self.half_width_95 / Z95


class LevelSetExperiment:
    """Uniform data-ball samples plus their distance profiles, shared by all cells.

    Sampling and profile computation happen lazily on first use and are
    reused afterwards, and so are the values at each tau, which every cell
    at that tau shares as one read-only array; ``estimate`` prices any
    (quantity, K, tau) cell from them.  ``workers`` splits the chunked
    sampling and profile work without changing any result.
    """

    def __init__(
        self,
        dictionary: Dictionary,
        fidelity: NormSpec,
        data: NormSpec,
        theta: float,
        n_samples: int,
        seed: int,
        *,
        workers: int = 1,
    ) -> None:
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        if not theta > 0.0:
            raise ValueError(f"theta must be > 0, got {theta}")
        self.dictionary = dictionary
        self.fidelity = fidelity
        self.data = data
        self.theta = float(theta)
        self.n_samples = int(n_samples)
        self.seed = int(seed)
        self.workers = workers
        self.solver = L0Solver(dictionary, fidelity)
        self._points: np.ndarray | None = None
        self._profiles: np.ndarray | None = None
        self._values: dict[float, np.ndarray] = {}

    @property
    def points(self) -> np.ndarray:
        if self._points is None:
            self._points = sample_levelset_batch(
                self.data,
                self.theta,
                self.dictionary.n_dim,
                self.n_samples,
                self.seed,
                self.workers,
            )
        return self._points

    @property
    def profiles(self) -> np.ndarray:
        if self._profiles is None:
            sizes.check_run(self.dictionary, self.fidelity, self.data, profiles=True)
            self._profiles = self.solver.distance_profiles(self.points, self.workers)
        return self._profiles

    def values(self, tau: float) -> np.ndarray:
        tau = float(tau)
        if tau not in self._values:
            vals = values_from_profiles(self.profiles, tau)
            vals.flags.writeable = False
            self._values[tau] = vals
        return self._values[tau]

    def data_ball_volume(self) -> VolumeEstimate:
        return ball_volume(self.data, self.dictionary.n_dim)

    def estimate(self, quantity: Quantity | str, K: int | None, tau: float) -> MCEstimate:
        """Estimate of one cell: ``quantity`` at level K and tolerance tau.

        prob_leq and prob_eq are the frequencies of value <= K and == K with
        a Wilson interval; measure_leq and measure_eq rescale them by the
        volume of the radius-theta data ball; expect is the mean value with a
        normal interval and takes K = None.
        """
        quantity = Quantity(quantity)
        threshold(tau)
        report_levels(quantity, K, self.dictionary.n_dim)
        vals = self.values(tau)
        if quantity is Quantity.EXPECT:
            spread = float(vals.std(ddof=1)) if self.n_samples > 1 else 0.0
            return MCEstimate(
                quantity, None, tau, self.theta, float(vals.mean()),
                Z95 * spread / math.sqrt(self.n_samples), self.n_samples, self.seed,
            )
        if quantity in (Quantity.MEASURE_LEQ, Quantity.PROB_LEQ):
            hits = int(np.count_nonzero(vals <= K))
        else:
            hits = int(np.count_nonzero(vals == K))
        return self._frequency(quantity, K, tau, hits)

    def _frequency(
        self, quantity: Quantity, K: int | None, tau: float, hits: int
    ) -> MCEstimate:
        """Hit rate with its Wilson interval, as a volume for the measures."""
        p_hat = hits / self.n_samples
        mean, half_width = p_hat, wilson_half_width(p_hat, self.n_samples)
        if quantity in (Quantity.MEASURE_LEQ, Quantity.MEASURE_EQ):
            vol = self.data_ball_volume().value
            scale = self.theta**self.dictionary.n_dim
            mean, half_width = p_hat * scale * vol, scale * (half_width * vol)
        return MCEstimate(
            quantity, K, tau, self.theta, mean, half_width, self.n_samples, self.seed
        )


@dataclass(frozen=True)
class FitResult:
    """Through-origin least squares fit y ~ slope * x^exponent."""

    slope: float
    r_squared: float


def fit_asymptote(x: Sequence[float], y: Sequence[float], exponent: int) -> FitResult:
    """Fit y against x**exponent through the origin.

    r_squared uses the uncentered total sum of squares, the natural choice
    for a through-origin model.
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError(f"x and y must be equal-length vectors, got {xs.shape}, {ys.shape}")
    if xs.size < 3:
        raise ValueError(f"need at least 3 points, got {xs.size}")
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("x and y must be finite")
    basis = xs**exponent
    denom = float(basis @ basis)
    if denom <= 0.0:
        raise ValueError("x**exponent has no energy; cannot fit through the origin")
    slope = float(basis @ ys) / denom
    ss_res = float(np.sum((ys - slope * basis) ** 2))
    ss_tot = float(ys @ ys)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(slope=slope, r_squared=r_squared)


@dataclass(frozen=True)
class ValidationRow:
    """One cell of the pass/fail matrix.

    ``passed`` is None when the cell sits outside the bounds' validity
    region; such cells are flagged, never silently dropped.  ``ratio``
    compares the estimate with the leading term of the bounds, where that
    term is defined.
    """

    quantity: Quantity
    K: int | None
    tau: float
    theta: float
    estimate: float
    half_width_95: float
    lower: float | None
    upper: float | None
    lower_std_err: float
    upper_std_err: float
    ratio: float | None
    valid: bool
    passed: bool | None


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple[ValidationRow, ...]
    theta: float
    n_samples: int
    seed: int

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.rows if r.passed is True)

    @property
    def n_fail(self) -> int:
        return sum(1 for r in self.rows if r.passed is False)

    @property
    def n_invalid(self) -> int:
        return sum(1 for r in self.rows if r.passed is None)

    @property
    def all_pass(self) -> bool:
        return self.n_fail == 0


def _row_from(est: MCEstimate, bound, leading: float | None) -> ValidationRow:
    ratio = None
    if leading is not None and leading > 0.0:
        ratio = est.mean / leading
    if not bound.valid:
        return ValidationRow(
            est.quantity, est.K, est.tau, est.theta, est.mean, est.half_width_95,
            None, None, 0.0, 0.0, ratio, False, None,
        )
    low_slack = _SIGMA_RULE * (est.std_err + bound.lower_std_err)
    up_slack = _SIGMA_RULE * (est.std_err + bound.upper_std_err)
    ok = (bound.lower - low_slack <= est.mean) and (est.mean <= bound.upper + up_slack)
    return ValidationRow(
        est.quantity, est.K, est.tau, est.theta, est.mean, est.half_width_95,
        bound.lower, bound.upper, bound.lower_std_err, bound.upper_std_err,
        ratio, True, ok,
    )


def validate_bounds(
    dictionary: Dictionary,
    fidelity: NormSpec,
    data: NormSpec,
    tau_grid: Sequence[float],
    theta: float,
    K_list: Sequence[int],
    *,
    quantities: Iterable[Quantity | str] = tuple(Quantity),
    n_samples: int = 100_000,
    seed: int = 42,
    workers: int = 1,
) -> ValidationReport:
    """Cross every requested quantity, level, and tau against its bounds.

    A cell passes when the estimate sits within the analytic sandwich with
    3 standard errors of slack, pooling the estimate's uncertainty with
    the bound's own Monte Carlo uncertainty.  Cells outside the validity
    region are flagged with passed = None.  ``workers`` splits sampling and
    distance profiles; the volume constants run in the calling thread.
    Every argument and level is checked before any work.
    """
    quantities = tuple(Quantity(q) for q in quantities)
    tau_grid = tuple(float(t) for t in tau_grid)
    K_list = tuple(int(k) for k in K_list)
    if not tau_grid or any(t <= 0 for t in tau_grid):
        raise ValueError("tau_grid must be nonempty and positive")
    n = dictionary.n_dim
    levels = bound_levels(quantities, K_list, n)
    experiment = LevelSetExperiment(
        dictionary, fidelity, data, theta, n_samples, seed, workers=workers
    )
    sizes.check_run(dictionary, fidelity, data, profiles=True, constants=levels)
    consts: dict[int, ConstantSet] = {
        k: assemble_constants(dictionary, fidelity, data, k, n_samples=n_samples, seed=seed)
        for k in levels
    }
    data_ball_vol = ball_volume(data, n)

    def leading_for(q: Quantity, K: int | None, tau: float) -> float | None:
        if q is Quantity.EXPECT:
            return None
        c = consts[K].c_total.value
        if q in (Quantity.MEASURE_LEQ, Quantity.MEASURE_EQ):
            return c * tau ** (n - K) * theta**K
        return c / data_ball_vol.value * (tau / theta) ** (n - K)

    rows: list[ValidationRow] = []
    for q, K, tau in validation_cells(quantities, K_list, tau_grid):
        bound = bound_report(q, K, tau, theta, consts, data_ball_vol)
        rows.append(_row_from(experiment.estimate(q, K, tau), bound, leading_for(q, K, tau)))
    return ValidationReport(
        rows=tuple(rows), theta=float(theta), n_samples=int(n_samples), seed=int(seed)
    )


def report_to_csv(report: ValidationReport) -> str:
    """Deterministic CSV rendering of a validation report."""
    return _csv(
        "quantity,K,tau,theta,estimate,ci,lower,upper,lower_err,upper_err,ratio,valid,pass",
        (
            (
                r.quantity, r.K, r.tau, r.theta, r.estimate, r.half_width_95,
                r.lower, r.upper, r.lower_std_err, r.upper_std_err,
                r.ratio, r.valid, r.passed,
            )
            for r in report.rows
        ),
    )


def estimates_to_csv(estimates: Iterable[MCEstimate]) -> str:
    """Deterministic CSV rendering of Monte Carlo estimates, one row per cell."""
    return _csv(
        "quantity,K,tau,theta,estimate,ci,n,seed",
        (
            (e.quantity, e.K, e.tau, e.theta, e.mean, e.half_width_95, e.n_samples, e.seed)
            for e in estimates
        ),
    )
