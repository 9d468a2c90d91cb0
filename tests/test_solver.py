"""Exact smallest-support solver against a brute-force subset oracle."""

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize

from l0geom import (
    ConvergenceError,
    Dictionary,
    L0Solver,
    NormSpec,
    dual_vertices,
    member_distances,
    norm_eval,
    orthonormal_basis,
    sample_levelset_batch,
    solve_l0,
    subspace_distance,
    values_from_profiles,
)
from l0geom import simplex, sizes, solver
from l0geom.subspaces import empty_basis, enumerate_spans
import oracles
from test_pair_dims import structured_dictionaries

L1, L2, LINF = NormSpec.l1(), NormSpec.l2(), NormSpec.linf()
THREE_LINES = Dictionary.from_vectors([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def oracle_distance(spec, atoms, d):
    """Distance from d to span(atoms) by an independent route.

    Euclidean and weighted-l2 via least squares; l1, linf, and weighted-l1
    via scipy's LP solver.  atoms has one atom per column (may be empty).
    """
    n = d.size
    if atoms.shape[1] == 0:
        return float(norm_eval(spec, d))
    if spec.kind == "l2":
        res = d - atoms @ np.linalg.lstsq(atoms, d, rcond=None)[0]
        return float(np.linalg.norm(res))
    if spec.kind == "wlp" and spec.p == 2.0:
        w = np.asarray(spec.weights)
        scaled = atoms * w[:, None]
        res = w * d - scaled @ np.linalg.lstsq(scaled, w * d, rcond=None)[0]
        return float(np.linalg.norm(res))
    if spec.kind == "wlp" and spec.p == 1.0:
        w = np.asarray(spec.weights)
        return oracle_distance(L1, atoms * w[:, None], w * d)
    k = atoms.shape[1]
    if spec.kind == "l1":
        a = np.hstack([atoms, -atoms, np.eye(n), -np.eye(n)])
        c = np.concatenate([np.zeros(2 * k), np.ones(2 * n)])
        ref = linprog(c, A_eq=a, b_eq=d, method="highs")
    else:
        cols = 2 * k + 1 + 2 * n
        a = np.zeros((2 * n, cols))
        a[:n, :k], a[:n, k : 2 * k], a[:n, 2 * k] = atoms, -atoms, 1.0
        a[:n, 2 * k + 1 : 2 * k + 1 + n] = -np.eye(n)
        a[n:, :k], a[n:, k : 2 * k], a[n:, 2 * k] = atoms, -atoms, -1.0
        a[n:, 2 * k + 1 + n :] = np.eye(n)
        c = np.zeros(cols)
        c[2 * k] = 1.0
        ref = linprog(c, A_eq=a, b_eq=np.concatenate([d, d]), method="highs")
    assert ref.status == 0
    return float(ref.fun)


def oracle_solve(spec, dictionary, d, tau, feas_tol=1e-10):
    """Minimum support size over all 2^m subsets, with the first-in-order witness."""
    thresh = tau * (1.0 + feas_tol)
    m = dictionary.n_atoms
    for size in range(m + 1):
        for subset in combinations(range(m), size):
            if oracle_distance(spec, dictionary.subset(subset), d) <= thresh:
                return size, subset
    return None, None


class TestSubspaceDistance:
    def test_euclidean_projection(self):
        axis = orthonormal_basis([[1.0, 0.0]])
        dist, point = subspace_distance(L2, axis, np.array([1.0, 1.0]))
        assert dist == pytest.approx(1.0)
        np.testing.assert_allclose(point, [1.0, 0.0], atol=1e-12)

    def test_hand_checked_l1_linf(self):
        diag = orthonormal_basis([[1.0, 1.0]])
        dist, _ = subspace_distance(L1, diag, np.array([0.5, 1.0]))
        assert dist == pytest.approx(0.5, abs=1e-10)
        dist, point = subspace_distance(LINF, diag, np.array([1.0, 0.0]))
        assert dist == pytest.approx(0.5, abs=1e-10)
        assert float(np.max(np.abs(np.array([1.0, 0.0]) - point))) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_zero_dimensional_span(self):
        dist, point = subspace_distance(L1, empty_basis(2), np.array([1.0, -2.0]))
        assert dist == 3.0
        np.testing.assert_array_equal(point, [0.0, 0.0])

    def test_weighted_lp_against_scaled_least_squares(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, n))
            basis = orthonormal_basis(rng.standard_normal((k, n)))
            if basis.dim != k:
                continue
            spec = NormSpec.weighted_lp(2.0, rng.uniform(0.3, 2.0, n))
            d = rng.standard_normal(n)
            dist, point = subspace_distance(spec, basis, d)
            assert dist == pytest.approx(
                oracle_distance(spec, basis.matrix, d), abs=1e-6
            )
            assert float(norm_eval(spec, d - point)) == pytest.approx(dist, abs=1e-9)

    def test_weighted_l1_reduces_to_a_linear_program(self):
        spec = NormSpec.weighted_lp(1.0, [2.0, 1.0])
        diag = orthonormal_basis([[1.0, 1.0]])
        d = np.array([0.5, 1.0])
        dist, _ = subspace_distance(spec, diag, d)
        assert dist == pytest.approx(oracle_distance(spec, diag.matrix, d), abs=1e-9)

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            subspace_distance(L2, empty_basis(2), np.zeros(3))


class TestSolveExamples:
    def test_single_atom_suffices(self):
        res = solve_l0(THREE_LINES, L2, np.array([0.9, 0.9]), 0.05)
        assert res.value == 1
        assert res.support == (2,)
        np.testing.assert_allclose(res.coefficients, [0.9], atol=1e-12)
        assert res.residual <= 0.05 * (1.0 + 1e-9)

    def test_needs_two_atoms(self):
        res = solve_l0(THREE_LINES, L2, np.array([1.0, 0.3]), 0.05)
        assert res.value == 2
        assert res.support == (0, 1)
        np.testing.assert_allclose(res.coefficients, [1.0, 0.3], atol=1e-12)
        assert res.residual == pytest.approx(0.0, abs=1e-12)

    def test_zero_support(self):
        res = solve_l0(THREE_LINES, L2, np.array([0.02, -0.03]), 0.05)
        assert res.value == 0
        assert res.support == ()
        assert res.coefficients.shape == (0,)
        assert res.residual == pytest.approx(np.hypot(0.02, 0.03))

    def test_tie_breaks_to_smallest_index(self):
        d = Dictionary.from_vectors([[2.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        res = solve_l0(d, L2, np.array([1.0, 0.0]), 0.01)
        assert res.value == 1
        assert res.support == (0,)
        np.testing.assert_allclose(res.coefficients, [0.5], atol=1e-12)

    def test_argument_guards(self):
        with pytest.raises(ValueError):
            solve_l0(THREE_LINES, L2, np.zeros(3), 0.1)
        with pytest.raises(ValueError):
            solve_l0(THREE_LINES, L2, np.zeros(2), 0.0)

    def test_results_compare_by_identity(self):
        identity = Dictionary.from_vectors(np.eye(2))
        first = solve_l0(identity, L2, np.array([1.0, 1.0]), 0.1)
        assert first == first
        assert first != solve_l0(identity, L2, np.array([1.0, 1.0]), 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("spec", [L2, LINF], ids=["l2", "linf"])
    def test_non_finite_data_is_rejected(self, bad, spec):
        # No span is within tau of a non-finite point, not even the whole
        # space, so the level scan must never start.
        with pytest.raises(ValueError, match="finite"):
            solve_l0(THREE_LINES, spec, np.array([bad, 0.5]), 0.1)


class TestInvalidInput:
    """Every entry point refuses non-finite data and a tau that is not positive."""

    BAD = [np.nan, np.inf, -np.inf]
    KINDS = ["l2", "linf", "wlp3"]

    @staticmethod
    def rows(bad):
        return np.array([[0.2, 0.1], [bad, 0.5], [0.3, -0.4]])

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("kind", KINDS)
    def test_profiles_reject_a_non_finite_row(self, bad, kind):
        with pytest.raises(ValueError, match=r"finite, got \[.*, 0\.5\]"):
            L0Solver(THREE_LINES, fidelity(kind, 2)).distance_profiles(self.rows(bad))

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("kind", KINDS)
    def test_member_distances_reject_a_non_finite_row(self, bad, kind):
        line = orthonormal_basis([[1.0, 1.0]])
        with pytest.raises(ValueError, match=r"finite, got \[.*, 0\.5\]"):
            member_distances(fidelity(kind, 2), line, self.rows(bad))

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("kind", KINDS)
    def test_subspace_distance_rejects_non_finite_data(self, bad, kind):
        line = orthonormal_basis([[1.0, 1.0]])
        with pytest.raises(ValueError, match=r"finite, got \[.*, 0\.5\]"):
            subspace_distance(fidelity(kind, 2), line, self.rows(bad)[1])

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, -np.inf])
    def test_values_need_a_positive_tau(self, tau):
        profiles = L0Solver(THREE_LINES, L2).distance_profiles(np.array([[0.2, 0.1], [1.0, 0.3]]))
        with pytest.raises(ValueError, match="tau must be > 0"):
            values_from_profiles(profiles, tau)


class TestToleranceSlots:
    """The benchmark passes every tolerance positionally: each slot takes
    None or the value in force, and refuses any other value by name."""

    SLOTS = ("span_tol", "feas_tol", "dist_tol")

    def in_force(self):
        return [THREE_LINES.span_tol, solver.FEAS_TOL, solver.DIST_TOL]

    def test_the_benchmark_call_shapes_work(self):
        l0 = L0Solver(THREE_LINES, L2, *self.in_force())
        profiles = l0.distance_profiles(np.array([[0.2, 0.1], [1.0, 0.3]]))
        np.testing.assert_array_equal(
            values_from_profiles(profiles, 0.05, solver.FEAS_TOL),
            values_from_profiles(profiles, 0.05),
        )
        assert solver.threshold(0.05) == 0.05 * (1.0 + 1e-10)

    @pytest.mark.parametrize("slot", range(3), ids=SLOTS)
    def test_another_value_in_a_solver_slot_is_refused_by_name(self, slot):
        tolerances = self.in_force()
        tolerances[slot] *= 10.0
        with pytest.raises(ValueError, match=f"^{self.SLOTS[slot]} "):
            L0Solver(THREE_LINES, L2, *tolerances)

    def test_another_feas_tol_is_refused_by_values_from_profiles(self):
        with pytest.raises(ValueError, match="^feas_tol "):
            values_from_profiles(np.zeros((1, 3)), 0.05, 1e-8)


class TestSolveProperties:
    def test_monotone_in_tau_and_scale_covariant(self):
        rng = np.random.default_rng(41)
        solver = L0Solver(THREE_LINES, L1)
        for _ in range(30):
            d = rng.standard_normal(2)
            small, large = sorted(rng.uniform(0.01, 1.0, 2))
            assert solver.value(d, small) >= solver.value(d, large)
            res = solver.solve(d, small)
            scaled = solver.solve(3.0 * d, 3.0 * small)
            assert scaled.value == res.value
            assert scaled.support == res.support

    def test_predicates_agree_with_solve(self):
        rng = np.random.default_rng(43)
        solver = L0Solver(THREE_LINES, LINF)
        for _ in range(20):
            d = rng.standard_normal(2)
            tau = float(rng.uniform(0.05, 0.8))
            value = solver.value(d, tau)
            for K in range(3):
                assert solver.value_leq(d, tau, K) == (value <= K)
                assert solver.value_eq(d, tau, K) == (value == K)
            fresh = L0Solver(THREE_LINES, LINF)
            assert fresh.value_leq(d, tau, value)
            assert fresh.value_eq(d, tau, value)

    def test_profiles_match_individual_solves(self):
        solver = L0Solver(THREE_LINES, L2)
        points = sample_levelset_batch(L2, 1.0, 2, 300, seed=6)
        profiles = solver.distance_profiles(points)
        assert profiles.shape == (300, 3)
        assert np.all(np.diff(profiles, axis=1) <= 1e-12)  # nested spans
        for tau in (0.02, 0.1, 0.4):
            vals = values_from_profiles(profiles, tau)
            for i in (0, 57, 123, 299):
                assert vals[i] == solver.value(points[i], tau)

    @pytest.mark.xfail(
        strict=True,
        reason="l2 profiles price a squared distance as <xx^T, I - P>, whose rounding "
        "(about 1e-8 here) exceeds a tau of 1e-9 for data lying in a span",
    )
    def test_profiles_match_solve_on_exactly_sparse_data_at_small_tau(self):
        atoms = np.random.default_rng(5).standard_normal((12, 6))
        solver = L0Solver(Dictionary.from_vectors(atoms), L2)
        d = 0.7 * atoms[0] - 0.4 * atoms[3] + 0.2 * atoms[5]
        profile = values_from_profiles(solver.distance_profiles(d[None, :]), 1e-9)[0]
        assert (solver.value(d, 1e-9), profile) == (3, 3)

    def test_profiles_worker_invariance(self):
        solver = L0Solver(THREE_LINES, L2)
        points = sample_levelset_batch(L2, 1.0, 2, 9000, seed=8)
        one = solver.distance_profiles(points, workers=1)
        four = solver.distance_profiles(points, workers=4)
        np.testing.assert_array_equal(one, four)

    def test_member_distances_matches_scalar_path(self):
        rng = np.random.default_rng(47)
        basis = orthonormal_basis([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
        rows = rng.standard_normal((40, 3))
        fast = member_distances(L2, basis, rows)
        slow = [subspace_distance(L2, basis, row)[0] for row in rows]
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    @pytest.mark.parametrize("kind", ["l2", "l1", "linf", "wlp3"])
    def test_member_distances_of_the_whole_space_are_zero(self, kind):
        members = solver.span_family(Dictionary.from_vectors(np.eye(3)), 3).members
        rows = np.random.default_rng(5).standard_normal((6, 3))
        np.testing.assert_array_equal(member_distances(fidelity(kind, 3), members[0], rows), 0.0)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("spec_index,spec", list(enumerate([L2, L1, LINF])))
    def test_oracle_agreement(self, spec_index, spec):
        rng = np.random.default_rng(1000 + spec_index)
        for _ in range(12):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(n, 7))
            while True:
                try:
                    d = Dictionary.from_vectors(rng.standard_normal((m, n)))
                    break
                except ValueError:
                    continue
            solver = L0Solver(d, spec)
            for _ in range(3):
                x = rng.standard_normal(n)
                tau = float(rng.uniform(0.05, 0.6))
                res = solver.solve(x, tau)
                size, subset = oracle_solve(spec, d, x, tau)
                assert res.value == size
                assert res.support == subset
                assert len(res.support) == res.value
                recon = d.subset(res.support) @ res.coefficients - x
                assert float(norm_eval(spec, recon)) == pytest.approx(
                    res.residual, abs=1e-9
                )
                assert res.residual <= tau * (1.0 + 1e-9)


def random_basis(rng, n, k, kind):
    """Orthonormal basis of a k-dimensional span in R^n.

    "axes" spans coordinate axes and "sums" spans 0/1 vectors (sums of
    coordinates); both put many dual vertices in degenerate position.
    "random" spans Gaussian vectors.
    """
    while True:
        if kind == "axes":
            vectors = np.eye(n)[np.sort(rng.choice(n, k, replace=False))]
        elif kind == "sums":
            vectors = rng.integers(0, 2, (k, n)).astype(float)
        else:
            vectors = rng.standard_normal((k, n))
        basis = orthonormal_basis(vectors) if k else empty_basis(n)
        if basis.dim == k:
            return basis


@st.composite
def spans_and_points(draw):
    n = draw(st.integers(2, 6))
    k = draw(st.integers(0, n))
    kind = draw(st.sampled_from(["random", "axes", "sums"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = random_basis(rng, n, k, kind)
    points = rng.standard_normal((8, n)) * draw(st.sampled_from([0.01, 1.0, 100.0]))
    # Points on the span itself, where the distance is zero.
    points[0] = basis.matrix @ rng.standard_normal(k)
    weights = rng.uniform(0.2, 5.0, n)
    return basis, points, weights


def lp_projection(spec, matrix, d):
    """Coefficients over the columns of matrix and the distance, from the simplex programs."""
    if spec.kind == "l1":
        return oracles.l1_projection(matrix, d)
    if spec.kind == "linf":
        return oracles.linf_projection(matrix, d)
    w = np.asarray(spec.weights)
    return oracles.l1_projection(matrix * w[:, None], d * w)


@contextmanager
def simplex_refused():
    """A block inside which any simplex program raises."""

    def refuse(*args, **kwargs):
        raise AssertionError("a simplex program ran")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "solve_standard_form", refuse)
        yield


def lp_distances(spec, basis, points):
    """Distances from the simplex projection programs, one LP per point."""
    if basis.dim == 0:
        return np.asarray(norm_eval(spec, points))
    return np.array([lp_projection(spec, basis.matrix, x)[1] for x in points])


class TestDualVertices:
    @settings(max_examples=150, deadline=None)
    @given(spans_and_points())
    def test_matches_the_simplex_projections(self, case):
        basis, points, weights = case
        scale = 1.0 + np.abs(points).sum(axis=1)
        for spec in (L1, LINF, NormSpec.weighted_lp(1.0, weights)):
            fast = member_distances(spec, basis, points)
            slow = lp_distances(spec, basis, points)
            assert np.all(np.abs(fast - slow) <= 1e-9 * scale), spec

    @settings(max_examples=60, deadline=None)
    @given(spans_and_points())
    def test_rows_are_feasible_dual_points(self, case):
        basis, _, weights = case
        for spec, dual_norm in (
            (L1, lambda z: np.max(np.abs(z), axis=1)),
            (LINF, lambda z: np.sum(np.abs(z), axis=1)),
            (NormSpec.weighted_lp(1.0, weights), lambda z: np.max(np.abs(z) / weights, axis=1)),
        ):
            table = dual_vertices(spec, basis)
            assert table.shape[1] == basis.ambient_dim
            assert np.all(dual_norm(table) <= 1.0 + 1e-12)
            assert np.all(np.abs(table @ basis.matrix) <= 1e-12)

    def test_full_space_has_only_the_zero_row(self):
        table = dual_vertices(LINF, orthonormal_basis(np.eye(3)))
        np.testing.assert_array_equal(table, np.zeros((1, 3)))

    def test_candidate_cap_fails_fast(self, monkeypatch):
        line = orthonormal_basis([[1.0, 2.0, 3.0]])  # C(3, 2) * 2^2 = 12 candidates
        monkeypatch.setattr(sizes, "MAX_DUAL_CANDIDATES", 11)
        for spec in (L1, NormSpec.weighted_lp(1.0, [1.0, 2.0, 3.0])):
            with pytest.raises(ValueError, match=r"C\(3, 2\) \* 2\^2 = 12 candidates.*cap of 11"):
                dual_vertices(spec, line)
        assert dual_vertices(LINF, line).shape[1] == 3  # the cross-polytope is not capped
        monkeypatch.setattr(sizes, "MAX_DUAL_CANDIDATES", 12)
        assert dual_vertices(L1, line).shape[1] == 3

    def test_a_stack_grows_by_one_table_pass_per_level(self, monkeypatch):
        calls = []
        real = solver._dual_tables

        def counting(spec, bases):
            calls.append(len(bases))
            return real(spec, bases)

        monkeypatch.setattr(solver, "_dual_tables", counting)
        stack = L0Solver(DICT3, LINF).level_stack(2)
        assert stack.starts == [0, 5] and len(stack.members) == 13
        assert calls == [5, 8]

    def test_box_vertices_of_a_stack_are_each_matrix_alone(self):
        rng = np.random.default_rng(11)
        comps = np.linalg.svd(rng.standard_normal((6, 5, 5)))[0][..., :3]
        w = np.linspace(0.5, 3.0, 5)
        points, z, keep = solver.box_vertices(comps, w)
        for c, p_i, z_i, keep_i in zip(comps, points, z, keep):
            alone = solver.box_vertices(c, w)
            for stacked, single in zip((p_i, z_i, keep_i), alone):
                assert stacked.tobytes() == single.tobytes()
            assert not np.any(p_i[~keep_i]) and not np.any(z_i[~keep_i])
        assert keep.any(axis=1).all() and not keep.all()

    def test_rejects_smooth_norms(self):
        with pytest.raises(ValueError):
            dual_vertices(L2, orthonormal_basis([[1.0, 1.0]]))
        with pytest.raises(ValueError):
            dual_vertices(NormSpec.weighted_lp(2.0, [1.0, 2.0]), orthonormal_basis([[1.0, 1.0]]))


def member_scan(spec, dictionary, d, tau, feas_tol=1e-10):
    """Value and support by one distance per family member, in provenance order.

    Polyhedral fidelities solve one simplex LP per member; l2 projects.
    """
    thresh = tau * (1.0 + feas_tol)
    for k in range(dictionary.n_dim + 1):
        for member in enumerate_spans(dictionary, k).members:
            if spec.polyhedral:
                dist = lp_distances(spec, member, d[None, :])[0]
            else:
                dist = subspace_distance(spec, member, d)[0]
            if dist <= thresh:
                return k, member.provenance
    raise AssertionError("the full space is always feasible")


@st.composite
def dependent_dictionaries(draw):
    """A dictionary in R^n, n <= 6, with repeated, parallel and summed atoms, plus points.

    Some points are exact sparse combinations of the atoms, where the
    distance to a containing span is zero.
    """
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = list(rng.standard_normal((n, n)))
    for _ in range(draw(st.integers(0, 3))):
        i, j = rng.integers(len(atoms), size=2)
        kind = draw(st.sampled_from(["repeat", "parallel", "sum"]))
        if kind == "repeat":
            atoms.append(atoms[i].copy())
        elif kind == "parallel":
            atoms.append(atoms[i] * draw(st.sampled_from([-3.0, -1.0, 0.5, 2.0])))
        else:
            atoms.append(atoms[i] + atoms[j])
        assume(np.any(atoms[-1] != 0.0))
    atoms = np.array(atoms)[rng.permutation(len(atoms))]
    points = rng.standard_normal((30, n)) * draw(st.sampled_from([0.01, 1.0, 100.0]))
    for i in range(min(n, 4)):
        support = rng.choice(len(atoms), i + 1, replace=False)
        points[i] = rng.standard_normal(i + 1) @ atoms[support]
    return Dictionary.from_vectors(atoms), points


@st.composite
def gaussian_dictionaries(draw):
    """n + extra Gaussian atoms in R^n, 2 <= n <= 4 and extra <= 3, plus points."""
    n, extra = draw(st.integers(2, 4)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while True:
        try:
            dictionary = Dictionary.from_vectors(rng.standard_normal((n + extra, n)))
            break
        except ValueError:
            continue
    return dictionary, rng.standard_normal((4, n))


def fidelity(kind, n):
    """The fidelity norm named kind in R^n; weighted norms take weights 0.5..3."""
    weights = np.linspace(0.5, 3.0, n)
    if kind == "weighted":
        return NormSpec.weighted_lp(1.0, weights)
    if kind == "wlp3":
        return NormSpec.weighted_lp(3.0, weights)
    return NormSpec(kind)


class TestPolyhedralSolve:
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(gaussian_dictionaries(), dependent_dictionaries()),
        st.sampled_from(["l1", "linf", "weighted"]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_a_per_member_lp_scan(self, case, kind, seed):
        dictionary, points = case
        n = dictionary.n_dim
        spec = fidelity(kind, n)
        fast = L0Solver(dictionary, spec)
        rng = np.random.default_rng(seed)
        for d in points[:4]:
            tau = float(rng.uniform(0.02, 1.0)) * float(norm_eval(spec, d) + 1e-3)
            res = fast.solve(d, tau)
            assert (res.value, res.support) == member_scan(spec, dictionary, d, tau)
            assert res.residual <= tau * (1.0 + 1e-9)
            for K in range(n + 1):
                assert fast.value_leq(d, tau, K) == (res.value <= K)

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([L1, LINF, NormSpec.weighted_lp(1.0, [0.5, 1.0, 3.0])]),
    )
    def test_profiles_worker_invariance(self, seed, spec):
        dictionary = Dictionary.from_vectors(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, -1.0, 1.0]]
        )
        points = np.random.default_rng(seed).uniform(-1.0, 1.0, (9000, 3))
        one = L0Solver(dictionary, spec).distance_profiles(points, workers=1)
        two = L0Solver(dictionary, spec).distance_profiles(points, workers=2)
        np.testing.assert_array_equal(one, two)

    def test_profiles_agree_with_member_distances(self):
        solver = L0Solver(THREE_LINES, LINF)
        points = np.random.default_rng(5).standard_normal((50, 2))
        profiles = solver.distance_profiles(points)
        nearest = [
            min(subspace_distance(LINF, m, x)[0] for m in solver.family(1).members) for x in points
        ]
        scale = 1.0 + np.abs(points).sum(axis=1)
        assert np.all(np.abs(profiles[:, 1] - nearest) <= 1e-12 * scale)


@st.composite
def sign_dictionaries(draw):
    """Atoms with entries in {-1, 0, 1} spanning R^n, 3 <= n <= 6, at most 10 of them.

    Their spans put many dual vertices in degenerate position, and the
    closest points of many data vectors are not unique.
    """
    n = draw(st.integers(3, 6))
    entry = st.sampled_from([-1.0, 0.0, 1.0])
    atom = st.lists(entry, min_size=n, max_size=n).filter(any)
    atoms = np.array(draw(st.lists(atom, min_size=n, max_size=min(10, n + 3))))
    assume(np.linalg.matrix_rank(atoms) == n)
    return Dictionary.from_vectors(atoms)


@st.composite
def certificate_cases(draw):
    """A dictionary, a polyhedral fidelity, data vectors, and tau as a share of their norm."""
    dictionary = draw(st.one_of(structured_dictionaries(), sign_dictionaries()))
    n = dictionary.n_dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["l1", "linf", "weighted"]))
    spec = NormSpec.weighted_lp(1.0, rng.uniform(0.2, 5.0, n)) if kind == "weighted" else NormSpec(kind)
    # Gaussian data, and half-integer data whose closest points tie often.
    points = np.vstack([rng.standard_normal((2, n)), rng.integers(-2, 3, (2, n)) / 2.0])
    return dictionary, spec, points, float(rng.uniform(0.05, 1.0))


class TestDualCertificate:
    """Closest points read off the dual vertex against the simplex programs,
    which run only as the oracle: inside the solver they are refused."""

    @settings(max_examples=120, deadline=None)
    @given(certificate_cases(), st.integers(0, 2**16))
    def test_subspace_distance_matches_the_simplex(self, case, pick):
        dictionary, spec, points, _ = case
        for k in range(1, dictionary.n_dim + 1):
            members = solver.span_family(dictionary, k).members
            member = members[pick % len(members)]
            for d in points:
                tol = 1e-12 * (1.0 + np.abs(d).sum())
                lp_dist = lp_projection(spec, member.matrix, d)[1]
                with simplex_refused():
                    dist, point = subspace_distance(spec, member, d)
                assert abs(dist - lp_dist) <= tol, (k, spec)
                assert abs(float(norm_eval(spec, d - point)) - lp_dist) <= tol, (k, spec)

    @settings(max_examples=120, deadline=None)
    @given(certificate_cases())
    def test_solve_attains_the_simplex_optimum(self, case):
        dictionary, spec, points, tau_scale = case
        l0 = L0Solver(dictionary, spec)
        for d in points:
            tol = 1e-12 * (1.0 + np.abs(d).sum())
            tau = tau_scale * float(norm_eval(spec, d)) + 1e-3
            value = values_from_profiles(l0.distance_profiles(d[None, :]), tau)[0]
            with simplex_refused():
                res = l0.solve(d, tau)
            assert res.value == value
            assert len(res.support) == res.value
            assert res.residual <= tau * (1.0 + 1e-9)
            atoms = dictionary.subset(res.support)
            if not res.value:
                assert res.residual == float(norm_eval(spec, d))
                continue
            lp_coeffs, lp_dist = lp_projection(spec, atoms, d)
            assert abs(res.residual - lp_dist) <= tol
            if np.max(np.abs(res.coefficients - lp_coeffs)) > 1e-9:
                # Another closest point: both must attain the optimum.
                assert abs(float(norm_eval(spec, d - atoms @ lp_coeffs)) - lp_dist) <= tol
                assert abs(float(norm_eval(spec, d - atoms @ res.coefficients)) - lp_dist) <= tol


DICT3 = Dictionary.from_vectors(
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, -1.0, 1.0]]
)


class TestCertificateFallback:
    """Certificates whose pinned rows leave free directions: the closest point
    is a vertex completion, and no simplex program runs."""

    @pytest.mark.parametrize(
        "spec", [LINF, L1, NormSpec.weighted_lp(1.0, [1.0, 2.0, 0.5])], ids=["linf", "l1", "wl1"]
    )
    def test_no_linear_program_runs_on_dict3(self, spec):
        l0 = L0Solver(DICT3, spec)
        rng = np.random.default_rng(3)
        points = rng.uniform(-1.0, 1.0, (300, 3)) * rng.uniform(0.0, 1.0, (300, 1))
        values = values_from_profiles(l0.distance_profiles(points), 0.05)
        with simplex_refused():
            for d, value in zip(points, values):
                res = l0.solve(d, 0.05)
                assert res.value == value
                assert res.residual <= 0.05 * (1.0 + 1e-10)
            for member in l0.family(2).members:
                dist, point = subspace_distance(spec, member, points[0])
                assert float(norm_eval(spec, points[0] - point)) == pytest.approx(dist, abs=1e-12)

    def test_a_pinned_point_outside_the_box_needs_no_simplex(self):
        """The line of (0, 1, 1, 1) is 0.16 from d in linf, certified by z = e1.

        The atom is zero on the one pinned row, so its coefficient is free.
        Least squares over the other rows (0, 0, 0.3) would put it at 0.1,
        where the residual 0.2 exceeds 0.16; any coefficient in [0.14, 0.16]
        attains 0.16, and holding one more row at +-0.16 reaches one.
        """
        dictionary = Dictionary.from_vectors(
            [[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
             [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        )
        d = np.array([0.16, 0.0, 0.0, 0.3])
        with simplex_refused():
            res = L0Solver(dictionary, LINF).solve(d, 0.2)
        assert (res.value, res.support) == (1, (0,))
        assert 0.14 - 1e-12 <= res.coefficients[0] <= 0.16 + 1e-12
        assert res.residual == pytest.approx(0.16, abs=1e-15)

    def test_pinned_rows_of_rounding_noise_pin_nothing(self):
        """An SVD basis of e3-perp in R^5 has entries near 1e-16 in row 3.

        z = e3 pins that row alone.  Measured against its own scale the row
        has rank 1, and its solve puts coefficients near 1e16; measured
        against the basis it has rank 0, and four completed rows pin c.
        """
        for seed in range(12):
            rng = np.random.default_rng(seed)
            vectors = rng.standard_normal((4, 5))
            vectors[:, 2] = 0.0
            basis = orthonormal_basis(vectors)
            d = rng.standard_normal(5)
            with simplex_refused():
                dist, point = subspace_distance(LINF, basis, d)
            assert dist == pytest.approx(abs(d[2]), abs=1e-15)
            assert float(norm_eval(LINF, d - point)) == pytest.approx(dist, abs=1e-14)
        assert 0.0 < np.abs(basis.matrix[2]).max() < 1e-15  # seed 11: about 7e-17

    @pytest.mark.parametrize("n,m", [(6, 10), (5, 9), (4, 8)])
    def test_sign_atoms_solve_without_the_simplex(self, n, m):
        """Random {-1, 0, 1} atoms put many linf certificates in degenerate position."""
        rng = np.random.default_rng(n)
        while True:
            atoms = rng.integers(-1, 2, (m, n)).astype(float)
            if np.all(np.any(atoms, axis=1)) and np.linalg.matrix_rank(atoms) == n:
                break
        l0 = L0Solver(Dictionary.from_vectors(atoms), LINF)
        points = rng.standard_normal((150, n))
        taus = 0.3 * np.asarray(norm_eval(LINF, points))
        profiles = l0.distance_profiles(points)
        values = [values_from_profiles(row[None, :], tau)[0] for row, tau in zip(profiles, taus)]
        with simplex_refused():
            for d, tau, value in zip(points, taus, values):
                res = l0.solve(d, tau)
                assert res.value == value
                assert res.residual <= tau * (1.0 + 1e-10)

    @pytest.mark.parametrize(
        "spec",
        [LINF, L1, NormSpec.weighted_lp(1.0, [1.0, 2.0, 0.5, 3.0])],
        ids=["linf", "l1", "wl1"],
    )
    def test_a_distance_below_the_true_one_is_refused(self, spec):
        """No candidate attains a dist below the distance, so none is returned."""
        basis = orthonormal_basis([[1.0, 2.0, 0.0, -1.0], [0.0, 1.0, 1.0, 1.0]], provenance=(3, 5))
        d = np.array([0.3, -1.2, 0.7, 0.4])
        table = dual_vertices(spec, basis)
        best = int(np.argmax(table @ d))
        dist = float(table[best] @ d)
        certificate = solver._Certificate(spec, basis, basis.matrix, table[best])
        coeffs, residual = certificate.closest(d, dist)
        assert residual == pytest.approx(dist, abs=1e-14)
        assert float(norm_eval(spec, d - basis.matrix @ coeffs)) == pytest.approx(dist, abs=1e-14)
        with pytest.raises(RuntimeError, match=r"attains distance .* for basis \(3, 5\)"):
            certificate.closest(d, 0.9 * dist)


class TestLevelTables:
    @settings(max_examples=200, deadline=None)
    @given(dependent_dictionaries())
    def test_family_members_come_in_provenance_order(self, case):
        # The stack's (level, provenance) order and the constants' pair pricing rest on it.
        dictionary, _ = case
        for k in range(dictionary.n_dim + 1):
            provenances = [m.provenance for m in solver.span_family(dictionary, k).members]
            assert all(a < b for a, b in zip(provenances, provenances[1:])), (k, provenances)

    @settings(max_examples=60, deadline=None)
    @given(dependent_dictionaries(), st.sampled_from(["l1", "linf", "weighted"]), st.booleans())
    def test_level_pass_gives_each_member_its_own_table(self, case, kind, small):
        # A budget of one cell puts every member in a pass of its own.
        dictionary, _ = case
        n = dictionary.n_dim
        spec = fidelity(kind, n)
        with pytest.MonkeyPatch.context() as patch:
            if small:
                patch.setattr(solver, "_PASS_CELLS", 1)
            for k in range(n + 1):
                members = solver.span_family(dictionary, k).members
                passes = list(solver._dual_tables(spec, np.stack([m.matrix for m in members])))
                table, counts = (np.concatenate(part) for part in zip(*passes))
                assert counts.sum() == len(table)
                for member, rows in zip(members, np.split(table, np.cumsum(counts)[:-1])):
                    expected = oracles.dual_vertices(spec, member)
                    assert rows.shape == expected.shape, (k, member.provenance)
                    assert rows.tobytes() == expected.tobytes(), (k, member.provenance)

    @pytest.mark.parametrize("kind", ["l1", "linf", "weighted"])
    @pytest.mark.parametrize("budget", [1, 3_000, solver._PASS_CELLS])
    def test_each_pass_is_deduplicated_alone(self, monkeypatch, kind, budget):
        # _first_rows sees one pass of candidates at a time, never a whole
        # level's, and the stack keeps its bytes at any budget.
        dictionary = Dictionary.from_vectors(np.random.default_rng(3).standard_normal((9, 5)))
        spec = fidelity(kind, 5)
        whole = L0Solver(dictionary, spec).level_stack(4)
        seen = []
        real = solver._first_rows
        monkeypatch.setattr(solver, "_first_rows", lambda keys: seen.append(len(keys)) or real(keys))
        monkeypatch.setattr(solver, "_PASS_CELLS", budget)
        stack = L0Solver(dictionary, spec).level_stack(4)
        assert stack.vertices.tobytes() == whole.vertices.tobytes()
        assert stack.bounds.tobytes() == whole.bounds.tobytes()
        frames = [sizes.section_points(kind != "linf", 5, 5 - k) for k in range(1, 5)]
        assert max(seen) <= max(budget // 5, max(frames))
        if budget == 1:  # every member is a pass of its own
            assert len(seen) == len(stack.members)

    @settings(max_examples=60, deadline=None)
    @given(dependent_dictionaries())
    def test_l2_profiles_match_member_distances(self, case):
        dictionary, points = case
        solver = L0Solver(dictionary, L2)
        profiles = solver.distance_profiles(points)
        scale = 1.0 + np.einsum("ij,ij->i", points, points)
        for k in range(1, dictionary.n_dim):
            members = solver.family(k).members
            nearest = np.array(
                [min(subspace_distance(L2, m, x)[0] for m in members) for x in points]
            )
            assert np.all(np.abs(profiles[:, k] ** 2 - nearest**2) <= 1e-12 * scale), k

    @settings(max_examples=40, deadline=None)
    @given(dependent_dictionaries(), st.sampled_from(["l1", "linf", "weighted"]))
    def test_polyhedral_profiles_match_member_tables(self, case, kind):
        dictionary, points = case
        n = dictionary.n_dim
        spec = NormSpec.weighted_lp(1.0, np.linspace(0.5, 3.0, n)) if kind == "weighted" else NormSpec(kind)
        solver = L0Solver(dictionary, spec)
        profiles = solver.distance_profiles(points)
        scale = 1.0 + np.abs(points).sum(axis=1)
        for k in range(1, n):
            nearest = np.min(
                [np.max(points @ dual_vertices(spec, m).T, axis=1) for m in solver.family(k).members],
                axis=0,
            )
            assert np.all(np.abs(profiles[:, k] - nearest) <= 1e-12 * scale), k

    @settings(max_examples=40, deadline=None)
    @given(dependent_dictionaries(), st.integers(0, 2**32 - 1))
    def test_l2_solve_matches_a_per_member_scan(self, case, seed):
        dictionary, points = case
        solver = L0Solver(dictionary, L2)
        rng = np.random.default_rng(seed)
        for d in points[::3]:
            tau = float(rng.uniform(0.02, 1.0)) * float(np.linalg.norm(d) + 1e-3)
            res = solver.solve(d, tau)
            assert (res.value, res.support) == member_scan(L2, dictionary, d, tau)
            assert res.residual <= tau * (1.0 + 1e-9)
            for K in range(dictionary.n_dim + 1):
                assert solver.value_leq(d, tau, K) == (res.value <= K)

    @pytest.mark.parametrize(
        "spec",
        [L2, L1, LINF] + [NormSpec.weighted_lp(p, [1.0, 2.0, 0.5, 3.0]) for p in (3.0, 1.3)],
        ids=["l2", "l1", "linf", "wlp3", "wlp1.3"],
    )
    def test_profiles_worker_invariance_off_the_block(self, spec):
        dictionary = Dictionary.from_vectors(
            [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
             [0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 0.0, 0.0], [2.0, 2.0, 0.0, 0.0], [1.0, -1.0, 1.0, 2.0]]
        )
        first = L0Solver(dictionary, spec)
        block = first.level_stack(3).block_rows
        assert block > 17
        # Three full blocks and a ragged tail, so every worker count splits them unevenly.
        points = np.random.default_rng(17).uniform(-1.0, 1.0, (3 * block + 17, 4))
        one = first.distance_profiles(points, workers=1)
        for workers in (2, 3):
            many = L0Solver(dictionary, spec).distance_profiles(points, workers=workers)
            np.testing.assert_array_equal(one, many)

    @settings(max_examples=60, deadline=None)
    @given(dependent_dictionaries())
    def test_l2_nearest_is_the_residual_minimum_within_the_screen(self, case):
        """Each level's gram minimum is within sqrt(slack) ||x|| of its residual-form minimum.

        The two forms of a squared distance differ by at most slack ||x||^2,
        and |a - b| <= sqrt(|a^2 - b^2|) for a, b >= 0.
        """
        dictionary, points = case
        n = dictionary.n_dim
        assume(n >= 2)
        stack = L0Solver(dictionary, L2).level_stack(n - 1)
        nearest = stack.nearest(points)
        ends = stack.starts[1:] + [len(stack.members)]
        for x, row in zip(points, nearest):
            residual = [np.min(stack._distances(x, s, e)) for s, e in zip(stack.starts, ends)]
            assert np.all(np.abs(row - residual) <= np.sqrt(stack.slack) * np.linalg.norm(x))

    def test_l2_solve_recovers_exact_sparse_combinations(self):
        """Exact K-sparse data is within 1e-12 of a size-K span, dependent atoms included."""
        rng = np.random.default_rng(61)
        base = rng.standard_normal((8, 5))
        atoms = np.vstack([base, base[0] + base[1], base[2] + base[3], base[4]])
        dictionary = Dictionary.from_vectors(atoms)
        solver = L0Solver(dictionary, L2)
        for K in range(1, 6):
            for _ in range(60):
                support = rng.choice(len(atoms), K, replace=False)
                d = rng.standard_normal(K) @ atoms[support]
                assert solver.solve(d, 1e-12).value <= K
                assert solver.value_leq(d, 1e-12, K)


def result_bits(res):
    return res.value, res.support, res.coefficients.tobytes(), np.float64(res.residual).tobytes()


FIDELITIES = ["l2", "l1", "linf", "weighted", "wlp3"]


class TestStackGrowth:
    """The solver's stacked table grows one level at a time, only as far as a
    solve needs, and what it holds never changes an answer."""

    @settings(max_examples=40, deadline=None)
    @given(dependent_dictionaries(), st.sampled_from(FIDELITIES), st.integers(0, 2**32 - 1))
    def test_a_grown_stack_gives_the_bits_of_a_fresh_one(self, case, kind, seed):
        dictionary, points = case
        n = dictionary.n_dim
        spec = fidelity(kind, n)
        rng = np.random.default_rng(seed)
        grown = L0Solver(dictionary, spec)
        dense = np.random.default_rng([seed, 1]).standard_normal(n)
        assert grown.solve(dense, 1e-9 * float(norm_eval(spec, dense))).value == n
        assert grown.level_stack(0).levels == n - 1
        for d in points[::3]:
            tau = float(rng.uniform(0.02, 1.0)) * float(norm_eval(spec, d) + 1e-3)
            fresh = L0Solver(dictionary, spec).solve(d, tau)
            assert result_bits(grown.solve(d, tau)) == result_bits(fresh)

    @pytest.mark.parametrize("kind", ["l1", "linf"])
    def test_polyhedral_certificates_do_not_depend_on_the_stack(self, kind):
        # A product over every built level can differ in its last bits from
        # the winning member's own product, which alone gives the certificate.
        dictionary = Dictionary.from_vectors(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, -1.0, 1.0]]
        )
        grown = L0Solver(dictionary, NormSpec(kind))
        points = sample_levelset_batch(NormSpec.l1(), 1.0, 3, 400, seed=13)
        grown.distance_profiles(points)
        for d in points:
            fresh = L0Solver(dictionary, NormSpec(kind)).solve(d, 0.05)
            assert result_bits(grown.solve(d, 0.05)) == result_bits(fresh)

    @pytest.mark.parametrize("kind", FIDELITIES)
    @pytest.mark.parametrize(
        "atoms", [[[2.0], [-0.5]], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]], ids=["N1", "N2"]
    )
    def test_one_and_two_dimensions(self, atoms, kind):
        dictionary = Dictionary.from_vectors(atoms)
        n = dictionary.n_dim
        spec = fidelity(kind, n)
        grown = L0Solver(dictionary, spec)
        assert grown.solve(np.linspace(0.7, 0.2, n), 1e-6).value == n
        assert grown.level_stack(0).levels == n - 1
        points = np.vstack([np.random.default_rng(3).standard_normal((12, n)),
                            0.4 * np.array(atoms), np.zeros((1, n))])
        profiles = grown.distance_profiles(points)
        for tau in (0.05, 0.5):
            values = values_from_profiles(profiles, tau)
            for d, value in zip(points, values):
                fresh = L0Solver(dictionary, spec).solve(d, tau)
                assert result_bits(grown.solve(d, tau)) == result_bits(fresh)
                assert fresh.value == value

    @pytest.mark.parametrize("kind", FIDELITIES)
    def test_a_solve_enumerates_no_level_above_its_answer(self, monkeypatch, kind):
        atoms = np.random.default_rng(5).standard_normal((7, 4))
        dictionary = Dictionary.from_vectors(atoms)
        solver = L0Solver(dictionary, fidelity(kind, 4))
        # Levels 1 and 2 need C(7, 1) = 7 and C(7, 2) = 21 subsets; level 3 needs 35.
        monkeypatch.setattr(sizes, "MAX_SPAN_SUBSETS", 21)
        res = solver.solve(0.5 * atoms[0] + 0.3 * atoms[1], 0.05)
        assert (res.value, res.support) == (2, (0, 1))
        assert max(dictionary._families) == 2
        assert solver.value_leq(0.5 * atoms[2] - atoms[6], 0.05, 2)
        assert max(dictionary._families) == 2
        with pytest.raises(ValueError, match=r"C\(7, 3\) = 35 .*MAX_SPAN_SUBSETS"):
            solver.solve(np.array([1.0, -2.0, 0.5, 3.0]), 1e-3)

    @pytest.mark.parametrize("kind", FIDELITIES)
    def test_value_leq_enumerates_level_k_alone(self, monkeypatch, kind):
        atoms = np.random.default_rng(8).standard_normal((7, 6))
        dictionary = Dictionary.from_vectors(atoms)
        solver = L0Solver(dictionary, fidelity(kind, 6))
        # Level 5 needs C(7, 5) = 21 subsets; levels 3 and 4 need 35 each.
        monkeypatch.setattr(sizes, "MAX_SPAN_SUBSETS", 21)
        assert solver.value_leq(atoms[:5].sum(axis=0), 1e-6, 5)
        assert not solver.value_leq(np.arange(1.0, 7.0), 1e-6, 5)
        assert sorted(dictionary._families) == [5]

    @pytest.mark.parametrize("kind", FIDELITIES)
    def test_value_leq_builds_a_level_table_once(self, monkeypatch, kind):
        atoms = np.random.default_rng(8).standard_normal((7, 6))
        dictionary = Dictionary.from_vectors(atoms)
        spec = fidelity(kind, 6)
        l0 = L0Solver(dictionary, spec)
        built = []
        level_stack = solver._level_stack
        monkeypatch.setattr(solver, "_level_stack", lambda *a: built.append(a) or level_stack(*a))
        points = np.vstack([atoms[:3].sum(axis=0), atoms[1] - atoms[4], np.arange(1.0, 7.0)])
        answers = [l0.value_leq(d, 1e-6, 3) for d in np.vstack([points, points])]
        assert answers == [True, True, False] * 2
        assert len(built) == 1
        # Once the stack holds level 3, value_leq reads it and the lone table is dropped.
        l0.level_stack(3)
        assert not l0._levels
        assert [l0.value_leq(d, 1e-6, 3) for d in points] == answers[:3]
        assert len(built) == 1

    def test_a_scan_stops_at_the_first_group_holding_a_member(self, monkeypatch):
        atoms = np.random.default_rng(9).standard_normal((8, 5))
        grown = L0Solver(Dictionary.from_vectors(atoms), L2)
        stack = grown.level_stack(4)
        # Levels 1 and 2 fit one product; levels 3 and 4 need one each.
        monkeypatch.setattr(solver, "_SCAN_CELLS", stack.cells[0] + stack.cells[1])
        scans = []
        first = stack._first
        monkeypatch.setattr(stack, "_first", lambda *a: scans.append(a[2:]) or first(*a))
        d = 0.5 * atoms[3] + 0.2 * atoms[6]
        fresh = L0Solver(Dictionary.from_vectors(atoms), L2).solve(d, 0.05)
        assert result_bits(grown.solve(d, 0.05)) == result_bits(fresh)
        assert fresh.value == 2
        assert scans == [(0, stack.starts[2])]
        scans.clear()
        assert grown.solve(np.arange(1.0, 6.0), 1e-9).value == 5
        assert scans == [(0, stack.starts[2]), (stack.starts[2], stack.starts[3]),
                         (stack.starts[3], len(stack.members))]


class TestScreenedScan:
    """An l2 scan screens each group of levels with the gram product and
    re-prices in residual form, one member at a time, only the members whose
    gram value lies within the screen's width of tau."""

    @settings(max_examples=40, deadline=None)
    @given(dependent_dictionaries(), st.integers(0, 2**32 - 1))
    def test_the_screen_names_the_residual_scan_winner(self, case, seed):
        dictionary, points = case
        n = dictionary.n_dim
        assume(n >= 2)
        rng = np.random.default_rng(seed)
        screened, reference = L0Solver(dictionary, L2), L0Solver(dictionary, L2)
        stack, ref_stack = screened.level_stack(n - 1), reference.level_stack(n - 1)
        # The reference prices every member alone in residual form.
        ref_stack._first = lambda d, thresh, start, stop: next(
            (m for m in range(start, stop) if ref_stack._distances(d, m, m + 1)[0] <= thresh), None
        )
        repriced = []
        distances = stack._distances
        stack._distances = lambda d, start, stop: repriced.append(stop - start) or distances(
            d, start, stop
        )
        # Exactly k-sparse points at small tau, and points at thresh * (1 +- 1e-12)
        # from a member of each level.
        cases = [(d, tau) for d in points[: min(n, 4)] for tau in (1e-12, 1e-9, 1e-6)]
        for k in range(1, n):
            family = screened.family(k).members
            member = family[int(rng.integers(len(family)))]
            near = member.matrix @ rng.standard_normal(k)
            away = member.complement().matrix @ rng.standard_normal(n - k)
            for tau in (1e-12, 1e-9, 1e-6):
                thresh = solver.threshold(tau)
                for scale in (1.0 - 1e-12, 1.0 + 1e-12):
                    cases.append((near + away * (thresh * scale / np.linalg.norm(away)), tau))
        for d, tau in cases:
            thresh = solver.threshold(tau)
            found = stack.first_within(d, thresh, 1, n - 1)
            assert found == ref_stack.first_within(d, thresh, 1, n - 1)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solver, "_SCAN_CELLS", 1)  # every level its own group
                assert stack.first_within(d, thresh, 1, n - 1) == found
            assert result_bits(screened.solve(d, tau)) == result_bits(reference.solve(d, tau))
        assert repriced and set(repriced) == {1}


class TestClosestPoint:
    """The scan names the winning member, and the closest method of the
    stack gives its coefficients from that member alone."""

    @settings(max_examples=40, deadline=None)
    @given(dependent_dictionaries(), st.sampled_from(["l2", "wlp3"]), st.integers(0, 2**32 - 1))
    def test_smooth_coefficients_fit_the_projected_point(self, case, kind, seed):
        dictionary, points = case
        spec = fidelity(kind, dictionary.n_dim)
        l0 = L0Solver(dictionary, spec)
        rng = np.random.default_rng(seed)
        for d in points[::3]:
            tau = float(rng.uniform(0.02, 1.0)) * float(norm_eval(spec, d) + 1e-3)
            res = l0.solve(d, tau)
            assert (res.value, res.support) == member_scan(spec, dictionary, d, tau)
            if not 0 < res.value < dictionary.n_dim:
                continue
            member = next(m for m in l0.family(res.value).members if m.provenance == res.support)
            atoms = dictionary.subset(res.support)
            point = subspace_distance(spec, member, d)[1]
            reference = np.linalg.lstsq(atoms, point, rcond=None)[0]
            scale = 1.0 + np.abs(d).sum() + np.abs(reference).sum()
            assert np.max(np.abs(res.coefficients - reference)) <= 1e-12 * scale
            assert res.residual <= tau * (1.0 + 1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        dependent_dictionaries(),
        st.sampled_from(["l1", "linf", "weighted"]),
        st.integers(0, 2**32 - 1),
    )
    def test_a_certificate_is_the_winner_own_table_maximum(self, case, kind, seed):
        dictionary, points = case
        spec = fidelity(kind, dictionary.n_dim)
        l0 = L0Solver(dictionary, spec)
        rng = np.random.default_rng(seed)
        certified = []
        original = solver._Certificate.closest

        def recording(certificate, d, dist):
            certified.append((certificate.basis, dist))
            return original(certificate, d, dist)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver._Certificate, "closest", recording)
            for d in points[::3]:
                tau = float(rng.uniform(0.02, 1.0)) * float(norm_eval(spec, d) + 1e-3)
                certified.clear()
                res = l0.solve(d, tau)
                if not 0 < res.value < dictionary.n_dim:
                    assert not certified
                    continue
                ((member, dist),) = certified
                assert member.provenance == res.support
                scale = 1.0 + np.abs(d).sum()
                assert abs(dist - np.max(dual_vertices(spec, member) @ d)) <= 1e-12 * scale
                assert res.residual <= tau * (1.0 + 1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        dependent_dictionaries(),
        st.sampled_from(["l1", "linf", "weighted"]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_a_warm_memo_gives_the_bits_of_a_fresh_solver(self, case, kind, axes, seed):
        """Certificates kept from earlier solves give the bits a fresh solver computes."""
        dictionary, points = case
        n = dictionary.n_dim
        if axes:
            # Exactly sparse points on coordinate atoms lie at distance exactly 0,
            # which only the zero vertex attains.
            dictionary = Dictionary.from_vectors(np.vstack([np.eye(n), dictionary.atoms.T]))
            points = np.vstack([0.7 * np.eye(n), np.eye(n)[:-1] - 2.0 * np.eye(n)[1:], points])
        spec = fidelity(kind, n)
        rng = np.random.default_rng(seed)
        scales = np.asarray(norm_eval(spec, points)) + 1e-3
        cases = [(d, 1e-12 * s) for d, s in zip(points[:8], scales)]
        cases += [(d, float(rng.uniform(0.02, 1.0)) * s) for d, s in zip(points[::3], scales[::3])]
        warm = L0Solver(dictionary, spec)
        for d, tau in cases:
            warm.solve(d, tau)
        stack = warm.level_stack(0)
        if axes and n > 1:
            assert any(column in stack.factors for column in stack.bounds[:-1].tolist())
        for d, tau in cases:
            fresh = L0Solver(dictionary, spec).solve(d, tau)
            assert result_bits(warm.solve(d, tau)) == result_bits(fresh)

    @pytest.mark.parametrize("kind", ["l2", "linf", "wlp3"])
    def test_concurrent_solves_give_the_serial_bits(self, kind):
        """Two threads solving the same vectors fill one memo and read the bits of serial solves."""
        rng = np.random.default_rng(23)
        atoms = rng.standard_normal((8, 4))
        dictionary = Dictionary.from_vectors(atoms)
        spec = fidelity(kind, 4)
        points = np.vstack([rng.standard_normal((40, 4)), rng.standard_normal((20, 2)) @ atoms[:2],
                            rng.standard_normal((10, 1)) * atoms[3]])
        grown = L0Solver(dictionary, spec)
        grown.distance_profiles(points)
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda d: grown.solve(d, 0.05), np.vstack([points, points])))
        serial = L0Solver(dictionary, spec)
        expected = [result_bits(serial.solve(d, 0.05)) for d in points]
        assert [result_bits(res) for res in threaded] == expected * 2
        assert {res.value for res in threaded} >= {1, 2, 3}

    @settings(max_examples=30, deadline=None)
    @given(dependent_dictionaries(), st.sampled_from(FIDELITIES))
    def test_level_n_interpolates_the_data(self, case, kind):
        dictionary, points = case
        n = dictionary.n_dim
        spec = fidelity(kind, n)
        l0 = L0Solver(dictionary, spec)
        for d in points[n:][::5]:
            tau = 1e-9 * float(norm_eval(spec, d))
            if l0.value_leq(d, tau, n - 1):
                continue
            res = l0.solve(d, tau)
            assert (res.value, res.support) == (n, l0.family(n).members[0].provenance)
            atoms = dictionary.subset(res.support)
            scale = 1.0 + np.abs(d).sum()
            np.testing.assert_allclose(atoms @ res.coefficients, d, rtol=0.0, atol=1e-12 * scale)
            assert res.residual <= tau * (1.0 + 1e-10)


class TestWeightedLpConvergence:
    SPEC = NormSpec.weighted_lp(3.0, [0.2, 1.0, 4.0, 2.0])
    BASIS = orthonormal_basis([[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 3.0, -1.0]], provenance=(0, 2))
    DATA = np.array([3.0, -1.0, 2.0, 0.5])

    def test_converges_within_the_cap(self):
        dist, point = subspace_distance(self.SPEC, self.BASIS, self.DATA)
        assert float(norm_eval(self.SPEC, self.DATA - point)) == pytest.approx(dist)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_step_cap_raises(self, monkeypatch, p):
        spec = NormSpec.weighted_lp(p, self.SPEC.weights)
        monkeypatch.setattr(solver, "_MAX_NEWTON_STEPS", 1)
        message = r"\(0, 2\) did not converge in 1 steps \(last gain \d"
        with pytest.raises(ConvergenceError, match=message):
            subspace_distance(spec, self.BASIS, self.DATA)


def nelder_mead_distance(spec, basis, d, start):
    """Smallest distance scipy's Nelder-Mead reaches from start, at most its value there."""
    def objective(c):
        return float(norm_eval(spec, d - basis.matrix @ c))

    options = {"xatol": 1e-14, "fatol": 1e-17, "maxfev": 4_000}
    return minimize(objective, start, method="Nelder-Mead", options=options).fun


def first_order_gap(spec, basis, d, point):
    """|U^T a| at the residual s = d - point, and the part of it rounding can explain.

    a = w t^(p-1) sign(s), with t = w |s| / max(w |s|), is the gradient of
    sum (w |s|)^p up to a positive factor.  Near p = 1 the optimal s_i of
    a near-interpolated coordinate is far below rounding (0.05^20 ~ 1e-26
    at p = 1.05), so s_i is known only to the accuracy of the fitted
    coefficients, taken as 1e-13 of |d_i| + sum_k |U_ik c_k|.  That moves
    t_i^(p-1) a lot where s_i is tiny, so the allowance is the spread of
    a_i over that interval, summed through |U|.
    """
    w, p, u = np.asarray(spec.weights), spec.p, basis.matrix
    s = d - point
    peak = np.max(w * np.abs(s))
    ulps = 1e-13 * (np.abs(d) + np.abs(u) @ np.abs(u.T @ point))
    t, slack = w * np.abs(s) / peak, w * ulps / peak
    grad = u.T @ (w * t ** (p - 1.0) * np.sign(s))
    lower = np.where(t > slack, 1.0, -1.0) * np.abs(t - slack) ** (p - 1.0)
    spread = w * ((t + slack) ** (p - 1.0) - lower)
    return np.abs(grad), np.abs(u).T @ spread, np.abs(u).T @ (w * t ** (p - 1.0))


@st.composite
def wlp_cases(draw):
    """A dependent dictionary, points, and a wlp fidelity with p in [1.05, 50]."""
    dictionary, points = draw(dependent_dictionaries())
    n = dictionary.n_dim
    weights = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.2, 5.0, n)
    spec = NormSpec.weighted_lp(draw(st.floats(1.05, 50.0)), weights)
    return dictionary, points, spec


class TestWeightedLpFit:
    @settings(max_examples=30, deadline=None)
    @given(wlp_cases(), st.integers(0, 2**32 - 1))
    def test_first_order_condition_and_nelder_mead(self, case, seed):
        dictionary, points, spec = case
        rng = np.random.default_rng(seed)
        for k in range(1, dictionary.n_dim):
            members = enumerate_spans(dictionary, k).members
            for d in points[rng.choice(len(points), 2, replace=False)]:
                basis = members[rng.integers(len(members))]
                dist, point = subspace_distance(spec, basis, d)
                # The fit stops on a gain of 1e-12, which leaves a gradient of
                # order sqrt(1e-12 * curvature), and phi's curvature is ~ p / dist.
                if dist > 1e-12 * (1.0 + np.abs(d).sum()):
                    grad, rounding, size = first_order_gap(spec, basis, d, point)
                    allowed = rounding + 1e-5 * np.sqrt(spec.p / min(dist, 1.0)) * size
                    assert np.all(grad <= allowed), (spec.p, dist, grad, rounding)
                reference = nelder_mead_distance(spec, basis, d, basis.matrix.T @ point)
                assert dist - reference <= 1e-12 * (1.0 + dist), (spec.p, dist, reference)

    @settings(max_examples=40, deadline=None)
    @given(wlp_cases(), st.integers(0, 2**32 - 1))
    def test_data_in_the_span_are_at_distance_zero(self, case, seed):
        dictionary, _, spec = case
        rng = np.random.default_rng(seed)
        for k in range(1, dictionary.n_dim + 1):
            for basis in enumerate_spans(dictionary, k).members[:3]:
                d = basis.matrix @ rng.standard_normal(k)
                dist, point = subspace_distance(spec, basis, d)
                assert dist <= 1e-12 * (1.0 + np.abs(d).sum())
                np.testing.assert_allclose(point, d, atol=1e-12 * (1.0 + np.abs(d).sum()))

    @pytest.mark.parametrize("p", [1.3, 3.0])
    def test_a_pair_fits_the_same_alone_in_a_block_and_in_a_level(self, p):
        spec = NormSpec.weighted_lp(p, [1.0, 2.0, 0.5, 3.0])
        dictionary = Dictionary.from_vectors(
            [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
             [0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 0.0, 0.0], [2.0, 2.0, 0.0, 0.0], [1.0, -1.0, 1.0, 2.0]]
        )
        points = np.random.default_rng(71).uniform(-1.0, 1.0, (40, 4))
        fitted = L0Solver(dictionary, spec)
        for k in range(1, 4):
            members = fitted.family(k).members
            table = solver._PowerLevel(spec, members)
            level = table.fit(points)[0]
            for m, member in enumerate(members):
                np.testing.assert_array_equal(member_distances(spec, member, points), level[:, m])
                for i in (0, 17, 39):
                    alone = subspace_distance(spec, member, points[i])[0]
                    assert alone == level[i, m]
            for i in (0, 17, 39):
                np.testing.assert_array_equal(table.distances(points[i]), level[i])

    @pytest.mark.parametrize("p", [1.3, 3.0])
    def test_solve_values_match_the_profiles(self, p):
        spec = NormSpec.weighted_lp(p, [1.0, 2.0, 0.5])
        dictionary = Dictionary.from_vectors(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, -1.0, 1.0]]
        )
        fitted = L0Solver(dictionary, spec)
        points = sample_levelset_batch(L2, 1.0, 3, 300, seed=9)
        profiles = fitted.distance_profiles(points)
        for tau in (0.01, 0.05, 0.2):
            values = values_from_profiles(profiles, tau)
            for i in range(0, 300, 7):
                res = fitted.solve(points[i], tau)
                assert res.value == values[i]
                assert res.residual <= tau * (1.0 + 1e-9)
