"""Monte Carlo estimators, the validation harness, and its failure detection.

The two-axis dictionary with Euclidean norms admits exact level-set
measures (strip unions in the disk), which makes every estimator here
checkable against closed forms, and makes deliberately corrupted
constants detectably wrong.
"""

import dataclasses
import math

import numpy as np
import pytest

from l0geom import (
    Dictionary,
    LevelSetExperiment,
    NormSpec,
    Quantity,
    ValidationReport,
    VolumeEstimate,
    assemble_constants,
    bound_report,
    fit_asymptote,
    orthonormal_basis,
    report_to_csv,
    validate_bounds,
    wilson_half_width,
)
from l0geom import sizes
from oracles import tube_overlap_measure

L2 = NormSpec.l2()
AXES2 = Dictionary.from_vectors([[1.0, 0.0], [0.0, 1.0]])


def two_strip_prob(tau):
    """P(value <= 1) at theta = 1: union of two chord strips over the disk."""
    return (
        4.0 * (tau * math.sqrt(1.0 - tau * tau) + math.asin(tau)) - 4.0 * tau * tau
    ) / math.pi


@pytest.fixture(scope="module")
def experiment():
    return LevelSetExperiment(AXES2, L2, L2, theta=1.0, n_samples=40_000, seed=7)


class TestWilson:
    def test_frozen_value(self):
        assert wilson_half_width(0.5, 100) == pytest.approx(
            0.09616846963400436, rel=1e-15
        )

    def test_edge_rates_still_have_width(self):
        assert wilson_half_width(0.0, 1000) > 0.0
        assert wilson_half_width(1.0, 1000) > 0.0

    def test_shrinks_with_n(self):
        assert wilson_half_width(0.3, 10_000) < wilson_half_width(0.3, 100)

    def test_guard(self):
        with pytest.raises(ValueError):
            wilson_half_width(0.5, 0)


class TestExperiment:
    def test_points_are_cached_and_deterministic(self, experiment):
        assert experiment.points is experiment.points
        again = LevelSetExperiment(AXES2, L2, L2, theta=1.0, n_samples=40_000, seed=7)
        np.testing.assert_array_equal(experiment.points, again.points)
        np.testing.assert_array_equal(experiment.profiles, again.profiles)

    def test_probability_matches_the_exact_strip_union(self, experiment):
        for tau in (0.05, 0.1):
            est = experiment.estimate(Quantity.PROB_LEQ, 1, tau)
            assert est.quantity is Quantity.PROB_LEQ
            assert abs(est.mean - two_strip_prob(tau)) <= 4.0 * est.std_err

    def test_point_mass_probability(self, experiment):
        tau = 0.1
        est = experiment.estimate(Quantity.PROB_EQ, 0, tau)
        assert abs(est.mean - tau * tau) <= 4.0 * est.std_err

    def test_frequencies_partition_exactly(self, experiment):
        tau = 0.07
        eqs = [experiment.estimate(Quantity.PROB_EQ, K, tau).mean for K in range(3)]
        leqs = [experiment.estimate(Quantity.PROB_LEQ, K, tau).mean for K in range(3)]
        assert sum(eqs) == pytest.approx(1.0, abs=1e-15)
        assert leqs == sorted(leqs)
        assert leqs[2] == 1.0
        assert leqs[1] == pytest.approx(eqs[0] + eqs[1], abs=1e-15)

    def test_expectation_identity(self, experiment):
        tau = 0.07
        expected = 2.0 - sum(
            experiment.estimate(Quantity.PROB_LEQ, K, tau).mean for K in range(2)
        )
        mean = experiment.estimate(Quantity.EXPECT, None, tau).mean
        assert mean == pytest.approx(expected, abs=1e-12)

    def test_measure_is_rescaled_probability(self, experiment):
        est = experiment.estimate(Quantity.MEASURE_LEQ, 1, 0.05)
        prob = experiment.estimate(Quantity.PROB_LEQ, 1, 0.05)
        assert est.mean == pytest.approx(prob.mean * math.pi, rel=1e-15)
        assert est.quantity is Quantity.MEASURE_LEQ

    def test_tube_overlap_around_the_axes(self, experiment):
        # Points within tau of both axes fill the square [-tau, tau]^2.
        x_axis = orthonormal_basis([[1.0, 0.0]])
        y_axis = orthonormal_basis([[0.0, 1.0]])
        tau = 0.1
        est = tube_overlap_measure(experiment, x_axis, y_axis, tau)
        assert abs(est.mean - 4.0 * tau * tau) <= 4.0 * est.std_err
        cap = 4.0 * math.pi * tau * tau  # one ordered pair's overlap constant
        assert est.mean <= cap + 3.0 * est.std_err

    def test_guards(self, experiment):
        with pytest.raises(ValueError):
            experiment.estimate(Quantity.PROB_LEQ, 5, 0.1)
        with pytest.raises(ValueError):
            experiment.estimate("between", 1, 0.1)
        with pytest.raises(ValueError):
            experiment.estimate(Quantity.MEASURE_EQ, None, 0.1)
        with pytest.raises(ValueError):
            experiment.estimate(Quantity.EXPECT, 1, 0.1)
        with pytest.raises(ValueError):
            experiment.values(0.0)
        with pytest.raises(ValueError):
            LevelSetExperiment(AXES2, L2, L2, theta=0.0, n_samples=10, seed=0)
        with pytest.raises(ValueError):
            LevelSetExperiment(AXES2, L2, L2, theta=1.0, n_samples=0, seed=0)

    def test_level_errors_keep_their_messages_and_order(self, experiment):
        with pytest.raises(ValueError, match=r"^tau must be > 0, got 0\.0$"):
            experiment.estimate(Quantity.PROB_LEQ, 5, 0.0)
        for quantity, K in [(Quantity.PROB_LEQ, 5), (Quantity.MEASURE_EQ, -1), (Quantity.PROB_EQ, None)]:
            with pytest.raises(ValueError, match=rf"^K must lie in \[0, 2\], got {K}$"):
                experiment.estimate(quantity, K, 0.1)
        with pytest.raises(ValueError, match=r"^expect takes K = None, got 1$"):
            experiment.estimate(Quantity.EXPECT, 1, 0.1)

    def test_fresh_experiments_agree(self, experiment):
        def fresh():
            return LevelSetExperiment(AXES2, L2, L2, theta=1.0, n_samples=40_000, seed=7)

        for cell in (
            (Quantity.PROB_LEQ, 1, 0.05),
            (Quantity.EXPECT, None, 0.05),
            (Quantity.MEASURE_EQ, 0, 0.05),
        ):
            assert fresh().estimate(*cell) == experiment.estimate(*cell)


class TestFit:
    def test_recovers_an_exact_power_law(self):
        x = np.array([0.01, 0.02, 0.05, 0.1])
        fit = fit_asymptote(x, 3.5 * x**2, exponent=2)
        assert fit.slope == pytest.approx(3.5, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_wrong_exponent_shows_in_r_squared(self):
        x = np.array([0.1, 0.2, 0.4, 0.8])
        fit = fit_asymptote(x, 2.0 * x, exponent=3)
        assert fit.r_squared < 0.9

    def test_guards(self):
        with pytest.raises(ValueError):
            fit_asymptote([1.0, 2.0], [1.0, 2.0], 1)
        with pytest.raises(ValueError):
            fit_asymptote([1.0, 2.0, 3.0], [1.0, 2.0], 1)
        with pytest.raises(ValueError):
            fit_asymptote([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 0)
        with pytest.raises(ValueError):
            fit_asymptote([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], 2)
        with pytest.raises(ValueError):
            fit_asymptote([1.0, 2.0, math.nan], [1.0, 2.0, 3.0], 1)


class TestValidation:
    def test_clean_configuration_passes_everywhere(self):
        report = validate_bounds(
            AXES2, L2, L2,
            tau_grid=(0.05, 0.1), theta=1.0, K_list=(0, 1, 2),
            n_samples=20_000, seed=11,
        )
        assert isinstance(report, ValidationReport)
        assert len(report.rows) == 26  # 4 leveled quantities x 3 K x 2 tau, + 2 expect
        assert report.all_pass
        assert report.n_pass == 26
        assert report.n_invalid == 0
        ratios = [r.ratio for r in report.rows if r.quantity is Quantity.PROB_LEQ and r.K == 1]
        assert all(0.5 < r < 2.0 for r in ratios)

    def test_invalid_cells_are_flagged_not_judged(self):
        report = validate_bounds(
            AXES2, L2, L2,
            tau_grid=(0.6,), theta=1.0, K_list=(1,),
            quantities=(Quantity.PROB_LEQ,), n_samples=2_000, seed=3,
        )
        row = report.rows[0]
        assert row.valid is False
        assert row.passed is None
        assert row.lower is None and row.upper is None
        assert report.n_invalid == 1
        assert report.all_pass  # no judged cell failed

    def test_corrupted_constants_are_caught(self):
        # Halving the leading constant drops the analytic ceiling below the
        # true measure; the estimate must then sit outside the sandwich by
        # far more than the pooled three-sigma slack.
        experiment = LevelSetExperiment(AXES2, L2, L2, theta=1.0, n_samples=20_000, seed=5)
        honest = assemble_constants(AXES2, L2, L2, 1)
        crooked = dataclasses.replace(
            honest, c_total=VolumeEstimate(honest.c_total.value / 2.0)
        )
        tau = 0.05
        est = experiment.estimate(Quantity.MEASURE_LEQ, 1, tau)
        bound = bound_report(Quantity.MEASURE_LEQ, 1, tau, 1.0, {1: crooked})
        assert est.mean > bound.upper + 3.0 * (est.std_err + bound.upper_std_err)

    def test_input_guards(self):
        with pytest.raises(ValueError):
            validate_bounds(AXES2, L2, L2, tau_grid=(), theta=1.0, K_list=(1,))
        with pytest.raises(ValueError):
            validate_bounds(AXES2, L2, L2, tau_grid=(-0.1,), theta=1.0, K_list=(1,))
        with pytest.raises(ValueError):
            validate_bounds(AXES2, L2, L2, tau_grid=(0.1,), theta=1.0, K_list=(7,))

    def test_level_errors_come_after_tau_and_before_the_family_cap(self, monkeypatch):
        monkeypatch.setattr(sizes, "MAX_SPAN_SUBSETS", 0)
        run = dict(theta=1.0, n_samples=10)
        with pytest.raises(ValueError, match="^tau_grid must be nonempty and positive$"):
            validate_bounds(AXES2, L2, L2, tau_grid=(0.0,), K_list=(7,), **run)
        for K_list, first_bad in [((1, 7, -1), 7), ((3,), 3)]:
            with pytest.raises(ValueError, match=rf"^K must lie in \[0, 2\], got {first_bad}$"):
                validate_bounds(AXES2, L2, L2, tau_grid=(0.1,), K_list=K_list, **run)
        with pytest.raises(ValueError, match="above the cap of 0"):
            validate_bounds(AXES2, L2, L2, tau_grid=(0.1,), K_list=(1,), **run)


class TestReportCsv:
    def test_header_and_determinism(self):
        kwargs = dict(
            tau_grid=(0.05,), theta=1.0, K_list=(0, 1),
            quantities=(Quantity.PROB_LEQ, Quantity.EXPECT), n_samples=5_000, seed=9,
        )
        first = report_to_csv(validate_bounds(AXES2, L2, L2, **kwargs))
        second = report_to_csv(validate_bounds(AXES2, L2, L2, **kwargs))
        assert first == second
        lines = first.splitlines()
        assert lines[0] == (
            "quantity,K,tau,theta,estimate,ci,lower,upper,lower_err,upper_err,"
            "ratio,valid,pass"
        )
        assert len(lines) == 4  # header + 2 prob rows + 1 expect row
        assert lines[1].startswith("prob_leq,0,0.05,1.0,")
        assert lines[3].startswith("expect,,0.05,1.0,")
        assert all(line.endswith(",true,true") for line in lines[1:])

    def test_worker_invariance(self):
        kwargs = dict(
            tau_grid=(0.02, 0.05), theta=1.0, K_list=(0, 1, 2), n_samples=12_000, seed=13,
        )
        serial = report_to_csv(validate_bounds(AXES2, L2, L2, **kwargs, workers=1))
        threaded = report_to_csv(validate_bounds(AXES2, L2, L2, **kwargs, workers=3))
        assert serial == threaded
