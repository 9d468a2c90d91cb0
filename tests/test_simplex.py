"""Bundled simplex against an independent LP solver and hand-built programs."""

import numpy as np
import pytest
from scipy.optimize import linprog

from l0geom.simplex import SimplexError, solve_standard_form
from oracles import l1_projection, linf_projection


def random_feasible_program(rng, m, n):
    """Standard-form program with a known feasible point and bounded value."""
    a = rng.standard_normal((m, n))
    x0 = rng.random(n)
    b = a @ x0
    c = rng.random(n)  # nonnegative costs keep the program bounded below
    return c, a, b


class TestStandardForm:
    def test_matches_scipy_on_random_programs(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m + 1, m + 7))
            c, a, b = random_feasible_program(rng, m, n)
            x, value = solve_standard_form(c, a, b)
            ref = linprog(c, A_eq=a, b_eq=b, method="highs")
            assert ref.status == 0
            assert value == pytest.approx(ref.fun, abs=1e-8)
            assert np.all(x >= -1e-9)
            assert np.linalg.norm(a @ x - b) <= 1e-8 * (1.0 + np.linalg.norm(b))

    def test_detects_infeasible(self):
        with pytest.raises(SimplexError, match="infeasible"):
            solve_standard_form(
                np.zeros(1), np.array([[1.0], [1.0]]), np.array([1.0, 2.0])
            )

    def test_detects_unbounded(self):
        with pytest.raises(SimplexError, match="unbounded"):
            solve_standard_form(
                np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0])
            )

    def test_tolerates_redundant_rows(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 1.0])
        x, value = solve_standard_form(np.array([2.0, 1.0]), a, b)
        assert value == pytest.approx(1.0)
        np.testing.assert_allclose(x, [0.0, 1.0], atol=1e-9)

    def test_negative_rhs_is_normalized(self):
        # x = 2 from -x = -2.
        x, value = solve_standard_form(np.array([1.0]), np.array([[-1.0]]), np.array([-2.0]))
        assert x[0] == pytest.approx(2.0)
        assert value == pytest.approx(2.0)

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            solve_standard_form(np.zeros(2), np.zeros((1, 3)), np.zeros(1))


class TestProjectionPrograms:
    def _scipy_l1(self, basis, d):
        n, k = basis.shape
        a = np.hstack([basis, -basis, np.eye(n), -np.eye(n)])
        c = np.concatenate([np.zeros(2 * k), np.ones(2 * n)])
        ref = linprog(c, A_eq=a, b_eq=d, method="highs")
        assert ref.status == 0
        return ref.fun

    def _scipy_linf(self, basis, d):
        n, k = basis.shape
        cols = 2 * k + 1 + 2 * n
        a = np.zeros((2 * n, cols))
        a[:n, :k] = basis
        a[:n, k : 2 * k] = -basis
        a[:n, 2 * k] = 1.0
        a[:n, 2 * k + 1 : 2 * k + 1 + n] = -np.eye(n)
        a[n:, :k] = basis
        a[n:, k : 2 * k] = -basis
        a[n:, 2 * k] = -1.0
        a[n:, 2 * k + 1 + n :] = np.eye(n)
        c = np.zeros(cols)
        c[2 * k] = 1.0
        ref = linprog(c, A_eq=a, b_eq=np.concatenate([d, d]), method="highs")
        assert ref.status == 0
        return ref.fun

    def test_matches_scipy_on_random_subspaces(self):
        rng = np.random.default_rng(211)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n))
            basis = np.linalg.qr(rng.standard_normal((n, k)))[0][:, :k]
            d = 2.0 * rng.standard_normal(n)
            coeffs, dist = l1_projection(basis, d)
            assert dist == pytest.approx(self._scipy_l1(basis, d), abs=1e-9)
            assert dist == pytest.approx(float(np.sum(np.abs(d - basis @ coeffs))), abs=1e-9)
            coeffs, dist = linf_projection(basis, d)
            assert dist == pytest.approx(self._scipy_linf(basis, d), abs=1e-9)
            assert dist == pytest.approx(float(np.max(np.abs(d - basis @ coeffs))), abs=1e-9)

    def test_point_already_on_the_subspace(self):
        basis = np.array([[1.0], [0.0]])
        for projector in (l1_projection, linf_projection):
            coeffs, dist = projector(basis, np.array([3.0, 0.0]))
            assert dist == pytest.approx(0.0, abs=1e-12)
            assert coeffs[0] == pytest.approx(3.0)

    def test_zero_dimensional_subspace(self):
        d = np.array([1.0, -2.0])
        coeffs, dist = l1_projection(np.zeros((2, 0)), d)
        assert coeffs.shape == (0,) and dist == 3.0
        coeffs, dist = linf_projection(np.zeros((2, 0)), d)
        assert coeffs.shape == (0,) and dist == 2.0

    def test_hand_checked_diagonal_examples(self):
        diag = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        # l1 distance from (0.5, 1) to the diagonal is 0.5.
        _, dist = l1_projection(diag, np.array([0.5, 1.0]))
        assert dist == pytest.approx(0.5, abs=1e-10)
        # linf distance from (1, 0) to the diagonal is 0.5, at midpoint.
        _, dist = linf_projection(diag, np.array([1.0, 0.0]))
        assert dist == pytest.approx(0.5, abs=1e-10)
