"""Volume constants and sandwich bounds against independent geometry.

Oracles used here:
  * Euclidean ball volumes pi^(n/2) / Gamma(n/2 + 1) and the equivalent
    ratio form 4 pi^(n/2) / (K (n-K) Gamma((n-K)/2) Gamma(K/2)).
  * Hand-computed shadows and slices for axis and diagonal lines.
  * scipy's ConvexHull and HalfspaceIntersection for the exact polytope
    volumes of l1, linf and weighted-l1 shadows and slices, the
    coordinate-section closed forms 2^k / k! and 2^k, and hit-or-miss
    Monte Carlo (``monte_carlo_volume``) for the zonotope shadows of the
    linf ball.
  * The area of a union of two perpendicular strips inside the unit disk,
    4 (tau sqrt(1 - tau^2) + asin tau) - 4 tau^2, for the exact level-set
    measure of the two-axis dictionary.
"""

import math
import operator
from functools import reduce
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, HalfspaceIntersection

from l0geom import (
    BoundReport,
    ConstantSet,
    Dictionary,
    NormSpec,
    Quantity,
    VolumeEstimate,
    assemble_constants,
    ball_volume,
    bound_report,
    compute_equiv_constants,
    constants_to_csv,
    euclid_ck,
    orthonormal_basis,
    overlap_budget,
    overlap_constant,
    projected_ball_volume,
    slice_volume,
)
from l0geom import bounds, norms, sizes, solver, streams
from l0geom.bounds import validation_cells
from l0geom.norms import norm_eval, polytope_volume
from l0geom.solver import member_distances, span_family
from l0geom.subspaces import SpanFamily, SubspaceBasis, empty_basis
import oracles
from oracles import cylinder_constant, overlap_cap
from test_solver import dependent_dictionaries, fidelity as named_norm

L1, L2, LINF = NormSpec.l1(), NormSpec.l2(), NormSpec.linf()
AXES2 = Dictionary.from_vectors([[1.0, 0.0], [0.0, 1.0]])
THREE_LINES = Dictionary.from_vectors([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
NORMS3 = {
    "l2": L2,
    "l1": L1,
    "linf": LINF,
    "wl1": NormSpec.weighted_lp(1.0, [1.0, 2.0, 0.5]),
    "wl3": NormSpec.weighted_lp(3.0, [1.0, 2.0, 0.5]),
}
# A sum atom (e1 + e2) and a parallel one (-2 e1) among six in R^3.
DEPENDENT3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 1], [-2, 0, 0]]


def monte_carlo_volume(kind, norm, basis, n_samples, seed, subid=0):
    """Hit-or-miss estimate of the norm's unit-ball "slice" through, or
    "shadow" on the complement of, the span of basis: draws from the box
    |y_i| <= delta, ||x||_2 <= delta norm(x), in coordinates of the span
    (slice) or of its complement (shadow), on the stream of that kind."""
    if kind == "slice":
        frame, inside = basis, lambda x: np.asarray(norm_eval(norm, x)) <= 1.0
    else:
        frame, inside = basis.complement(), lambda x: member_distances(norm, basis, x) <= 1.0
    purpose = streams.PURPOSE_SLICE if kind == "slice" else streams.PURPOSE_PROJECTED
    return norms.hit_or_miss_volume(
        lambda y: inside(y @ frame.matrix.T),
        np.full(frame.dim, compute_equiv_constants(norm, norm, basis.ambient_dim).delta2),
        n_samples,
        seed,
        streams.stream_id(purpose, subid),
    )


# Area of {x : min(|x_1|, |x_2|) <= tau} inside the unit disk: two chord
# strips minus their shared 2tau x 2tau square.
def two_strip_area(tau):
    return 4.0 * (tau * math.sqrt(1.0 - tau * tau) + math.asin(tau)) - 4.0 * tau * tau


class TestEuclidConstant:
    def test_matches_ratio_formula(self):
        for n in range(2, 7):
            for K in range(1, n):
                ratio = (
                    4.0
                    * math.pi ** (n / 2)
                    / (K * (n - K) * math.gamma((n - K) / 2) * math.gamma(K / 2))
                )
                assert euclid_ck(K, n) == pytest.approx(ratio, rel=1e-12)

    def test_edges_give_the_ball_volume(self):
        for n in range(1, 6):
            assert euclid_ck(0, n) == pytest.approx(math.pi ** (n / 2) / math.gamma(n / 2 + 1))
            assert euclid_ck(n, n) == euclid_ck(0, n)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            euclid_ck(3, 2)


class TestShadowVolume:
    def test_euclidean_closed_form(self):
        line = orthonormal_basis([[1.0, 2.0, 2.0]])
        est = projected_ball_volume(L2, line)
        assert est.value == pytest.approx(math.pi)
        assert est.std_err == 0.0

    def test_full_subspace_is_a_point(self):
        full = orthonormal_basis(np.eye(2))
        assert projected_ball_volume(LINF, full).value == 1.0

    def test_empty_subspace_is_the_whole_ball(self):
        est = projected_ball_volume(L1, empty_basis(2))
        assert est.value == pytest.approx(2.0)  # l1 ball area 2^n / n!
        assert est.std_err == 0.0

    def test_box_shadow_of_the_diagonal(self):
        # The square [-1, 1]^2 projects onto the antidiagonal as a segment
        # of length 2 sqrt(2), and the sampling box equals that segment, so
        # the estimate is exact.
        diag = orthonormal_basis([[1.0, 1.0]])
        est = projected_ball_volume(LINF, diag, n_samples=4000)
        assert est.value == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
        assert est.std_err == 0.0

    def test_forced_monte_carlo_agrees_with_closed_form(self):
        line = orthonormal_basis([[0.0, 0.0, 1.0]])
        est = monte_carlo_volume("shadow", L2, line, 50_000, 0)
        assert est.std_err > 0.0
        assert abs(est.value - projected_ball_volume(L2, line).value) <= 4.0 * est.std_err


class TestSliceVolume:
    def test_euclidean_closed_form(self):
        plane = orthonormal_basis([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        est = slice_volume(L2, plane)
        assert est.value == pytest.approx(math.pi)
        assert est.std_err == 0.0

    def test_zero_dimensional_convention(self):
        assert slice_volume(L1, empty_basis(3)).value == 1.0

    def test_full_slice_is_the_ball(self):
        full = orthonormal_basis(np.eye(2))
        assert slice_volume(LINF, full).value == pytest.approx(4.0)

    def test_diagonal_slice_of_the_l1_ball(self):
        # {t (1,1)/sqrt(2) : sqrt(2) |t| <= 1} has length sqrt(2), exactly.
        diag = orthonormal_basis([[1.0, 1.0]])
        est = slice_volume(L1, diag, n_samples=100_000)
        assert est.std_err == 0.0
        assert est.value == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_forced_monte_carlo_agrees_with_closed_form(self):
        plane = orthonormal_basis([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        est = monte_carlo_volume("slice", L2, plane, 50_000, 0)
        assert abs(est.value - slice_volume(L2, plane).value) <= 4.0 * est.std_err


def _random_basis(rng, n, k):
    return orthonormal_basis(rng.standard_normal((k, n)))


def _signs(n):
    return np.array(list(product((-1.0, 1.0), repeat=n)))


def _halfspace_volume(normals):
    """Volume of {y : normals @ y <= 1} from scipy's halfspace intersection."""
    halfspaces = np.column_stack([normals, -np.ones(len(normals))])
    corners = HalfspaceIntersection(halfspaces, np.zeros(normals.shape[1])).intersections
    return ConvexHull(corners).volume


def _slice_normals(norm, u):
    """Facet normals of {y : norm(U y) <= 1} in the coordinates of U."""
    if norm.kind == "linf":
        return np.vstack([u, -u])
    w = np.ones(u.shape[0]) if norm.kind == "l1" else np.asarray(norm.weights)
    return (_signs(u.shape[0]) * w) @ u


def _weighted_l1(n, rng):
    return NormSpec.weighted_lp(1.0, rng.uniform(0.5, 2.0, n))


class TestExactVolumes:
    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_slices_match_scipy(self, n):
        rng = np.random.default_rng(n)
        worst = 0.0
        for k in range(2, 6):
            for norm in (L1, LINF, _weighted_l1(n, rng)):
                u = _random_basis(rng, n, k)
                est = slice_volume(norm, u)
                ref = _halfspace_volume(_slice_normals(norm, u.matrix))
                assert est.std_err == 0.0
                worst = max(worst, abs(est.value - ref) / ref)
        assert worst <= 1e-13

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_shadows_match_scipy(self, n):
        rng = np.random.default_rng(100 + n)
        for k in range(1, n - 1):
            for norm in (L1, LINF, _weighted_l1(n, rng)):
                basis = _random_basis(rng, n, k)
                comp = basis.complement().matrix
                if norm.kind == "linf":
                    corners = _signs(n) @ comp
                else:
                    w = np.ones(n) if norm.kind == "l1" else np.asarray(norm.weights)
                    corners = np.vstack([comp, -comp]) / np.tile(w, 2)[:, None]
                est = projected_ball_volume(norm, basis)
                assert est.std_err == 0.0
                assert est.value == pytest.approx(ConvexHull(corners).volume, rel=1e-13)

    def test_polytope_volume_matches_convex_hull(self):
        rng = np.random.default_rng(7)
        for n, k in ((5, 2), (6, 3), (6, 5), (8, 4)):
            u = _random_basis(rng, n, k).matrix
            s = list(combinations(range(n), k - 1))
            r = np.linalg.svd(u[np.array(s).reshape(len(s), k - 1)])[2][:, -1]
            r /= np.abs(r @ u.T).sum(axis=1, keepdims=True)
            points = np.vstack([r, -r])
            assert polytope_volume(points, _slice_normals(L1, u)) == pytest.approx(
                ConvexHull(points).volume, rel=1e-14
            )

    def test_coordinate_sections_are_exact(self):
        for n in range(2, 7):
            for k in range(1, n):
                for subset in (tuple(range(k)), tuple(range(n - k, n))):
                    basis = orthonormal_basis(np.eye(n)[list(subset)])
                    assert slice_volume(L1, basis).value == 2.0**k / math.factorial(k)
                    assert slice_volume(LINF, basis).value == pytest.approx(2.0**k, rel=1e-14)
                    m = n - k
                    assert projected_ball_volume(L1, basis).value == pytest.approx(
                        2.0**m / math.factorial(m), rel=1e-14
                    )
                    assert projected_ball_volume(LINF, basis).value == 2.0**m

    def test_zonotope_shadow_agrees_with_monte_carlo(self):
        rng = np.random.default_rng(11)
        for n, k in ((3, 1), (4, 2), (5, 2)):
            basis = _random_basis(rng, n, k)
            exact = projected_ball_volume(LINF, basis)
            mc = monte_carlo_volume("shadow", LINF, basis, 200_000, 3)
            assert mc.std_err > 0.0
            assert abs(exact.value - mc.value) <= 3.0 * mc.std_err

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["l1", "linf", "wl1"]),
        st.booleans(),
    )
    def test_invariant_under_isometries(self, dims, seed, kind, integer):
        # A rotation of the basis inside its subspace, and a permutation
        # with sign flips of the coordinates (weights permuted alike), map
        # every shadow and slice onto an isometric copy.
        n, k = dims
        rng = np.random.default_rng(seed)
        raw = rng.integers(-2, 3, (k, n)).astype(float) if integer else rng.standard_normal((k, n))
        assume(np.linalg.matrix_rank(raw) == k)
        basis = orthonormal_basis(raw)
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        perm, flips = rng.permutation(n), rng.choice([-1.0, 1.0], n)
        weights = rng.uniform(0.5, 2.0, n)
        norm = {"l1": L1, "linf": LINF, "wl1": NormSpec.weighted_lp(1.0, weights)}[kind]
        moved_norm = norm if kind != "wl1" else NormSpec.weighted_lp(1.0, weights[perm])
        rotated = SubspaceBasis(basis.matrix @ q)
        moved = SubspaceBasis((basis.matrix * flips[:, None])[perm])
        for volume in (slice_volume, projected_ball_volume):
            ref = volume(norm, basis).value
            assert volume(norm, rotated).value == pytest.approx(ref, rel=1e-12)
            assert volume(moved_norm, moved).value == pytest.approx(ref, rel=1e-12)

    def test_missing_vertex_raises(self):
        cross = np.vstack([np.eye(3), -np.eye(3)])
        assert polytope_volume(cross, _signs(3)) == pytest.approx(4.0 / 3.0, rel=1e-15)
        with pytest.raises(ValueError, match="face lattice"):
            polytope_volume(cross[1:], _signs(3))

    def test_caps_fail_fast(self, monkeypatch):
        rng = np.random.default_rng(5)
        plane4 = _random_basis(rng, 6, 4)
        monkeypatch.setattr(sizes, "MAX_POLYTOPE_CANDIDATES", 2559)
        with pytest.raises(
            ValueError,
            match=r"^l1 slice of a 4-dimensional subspace of R\^6 needs 2 \* C\(6, 3\) \* 2\^6 "
            r"= 2560 candidates, above the cap of 2559 \(sizes.MAX_POLYTOPE_CANDIDATES\)$",
        ):
            slice_volume(L1, plane4)
        with pytest.raises(ValueError, match=r"C\(6, 4\) \* 2\^4 \* 12 = 2880 candidates"):
            slice_volume(LINF, plane4)
        monkeypatch.setattr(sizes, "MAX_POLYTOPE_CANDIDATES", 14)
        with pytest.raises(ValueError, match=r"12 points by \d+ facet normals"):
            projected_ball_volume(L1, _random_basis(rng, 6, 2))
        with pytest.raises(ValueError, match=r"C\(6, 2\) = 15 determinants"):
            projected_ball_volume(LINF, plane4)
        # A hyperplane section of the cross-polytope in R^8 starts from
        # 2 C(8, 6) * 2^8 = 14,336 candidate incidences and walks more faces.
        monkeypatch.setattr(sizes, "MAX_POLYTOPE_CANDIDATES", 14_336)
        with pytest.raises(ValueError, match="face walk of a 7-polytope with 56 vertices"):
            slice_volume(L1, _random_basis(rng, 8, 7))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_linf_slice_points_of_a_batch_are_each_subspaces_own(self, k):
        # Each subspace's kept box vertices, in order, then zero rows up to the widest.
        rng = np.random.default_rng(20 + k)
        u = np.stack([_random_basis(rng, 6, k).matrix for _ in range(9)])
        u[3] = np.eye(6)[:, :k]  # a coordinate subspace keeps fewer candidates
        points, normals = bounds._slice_polytope(LINF, u)
        alone = []
        for each in u:
            x, _, keep = solver.box_vertices(each, np.ones(6))
            alone.append(x[keep])
        assert points.tobytes() == oracles.stacked(alone).tobytes()
        assert normals.tobytes() == np.hstack([u, -u]).tobytes()

    @pytest.mark.parametrize("per_pass", [1, 2, 4])
    def test_linf_slice_points_split_into_passes_keep_their_bytes(self, monkeypatch, per_pass):
        # A budget of per_pass subspaces' candidate cells: 9 subspaces, one
        # of them with fewer kept points, in several passes of box_vertices,
        # which the slice reaches through solver._sections.
        rng = np.random.default_rng(31)
        u = np.stack([_random_basis(rng, 6, 3).matrix for _ in range(9)])
        u[3] = np.eye(6)[:, :3]
        whole = bounds._slice_polytope(LINF, u)
        calls = []
        real = solver.box_vertices

        def counting(c, w):
            calls.append(len(c))
            return real(c, w)

        monkeypatch.setattr(solver, "box_vertices", counting)
        monkeypatch.setattr(solver, "_PASS_CELLS", per_pass * math.comb(6, 3) * 2**3 * 6)
        points, normals = bounds._slice_polytope(LINF, u)
        assert calls == [per_pass] * (9 // per_pass) + [9 % per_pass] * (9 % per_pass > 0)
        assert points.tobytes() == whole[0].tobytes()
        assert normals.tobytes() == whole[1].tobytes()

    @pytest.mark.parametrize("data", [L1, NormSpec.weighted_lp(1.0, [1, 2, 0.5, 3, 1.5, 1])])
    def test_l1_slice_points_split_into_passes_keep_their_bytes(self, monkeypatch, data):
        # A budget of 2 subspaces' candidate cells: 9 subspaces in 5 passes of null_directions.
        rng = np.random.default_rng(32)
        u = np.stack([_random_basis(rng, 6, 3).matrix for _ in range(9)])
        u[3] = np.eye(6)[:, :3]
        whole = bounds._slice_polytope(data, u)
        calls = []
        real = solver.null_directions
        monkeypatch.setattr(solver, "null_directions", lambda c: calls.append(len(c)) or real(c))
        monkeypatch.setattr(solver, "_PASS_CELLS", 2 * sizes.section_points(False, 6, 3) * 6)
        points, normals = bounds._slice_polytope(data, u)
        assert calls == [2, 2, 2, 2, 1]
        assert points.tobytes() == whole[0].tobytes()
        assert normals.tobytes() == whole[1].tobytes()

    @pytest.mark.parametrize("spec", [L1, NormSpec.weighted_lp(1.0, [1, 2, 0.5, 3, 1.5, 1])])
    @pytest.mark.parametrize("k", [2, 4])
    def test_shadow_facets_keep_their_bytes_in_any_passes(self, monkeypatch, spec, k):
        # Each subspace's table rows less the zero row, in complement
        # coordinates, then zero rows up to the widest: the bytes of its own
        # table, whether the solver's passes hold every subspace or one.
        rng = np.random.default_rng(40 + k)
        frames = np.linalg.qr(rng.standard_normal((9, 6, 6)))[0]
        frames[3] = np.eye(6)  # a coordinate subspace keeps fewer facets
        u, comp = frames[:, :, 6 - k :], frames[:, :, : 6 - k]
        alone = [oracles.dual_vertices(spec, SubspaceBasis(a))[1:] @ c for a, c in zip(u, comp)]
        hull = np.hstack([comp, -comp]) / np.tile(solver._weights(spec, 6), 2)[:, None]
        whole = bounds._shadow_polytope(spec, u, comp)
        monkeypatch.setattr(solver, "_PASS_CELLS", 1)
        split = bounds._shadow_polytope(spec, u, comp)
        for points, facets in (whole, split):
            assert points.tobytes() == hull.tobytes()
            assert facets.tobytes() == oracles.stacked(alone).tobytes()

    def test_each_distinct_subspace_is_priced_once_per_dictionary(self, monkeypatch):
        calls = []
        original = bounds._slice_polytope

        def counting(data, u):
            calls.append((len(u), u.shape[2]))
            return original(data, u)

        monkeypatch.setattr(bounds, "_slice_polytope", counting)
        identity = Dictionary.from_vectors(np.eye(6))
        first = [assemble_constants(identity, L2, L1, K, seed=1) for K in range(7)]
        # Every coordinate subspace of dimension 1..5, once, in one batch per
        # dimension: the overlap slices at level K are the cylinder slices of
        # lower levels.
        assert calls == [(math.comb(6, k), k) for k in range(1, 6)]
        assert len(identity._volumes) == 62
        again = [assemble_constants(identity, L2, L1, K, seed=2) for K in range(7)]
        assert len(calls) == 5
        assert constants_to_csv(first) == constants_to_csv(again)
        fresh = Dictionary.from_vectors(np.eye(6))
        assert fresh._volumes == {}
        assemble_constants(fresh, L2, L1, 1)
        assert calls[5:] == [(6, 1)]

    def test_polyhedral_constants_are_exact_and_seed_free(self):
        rows = [
            constants_to_csv(
                [assemble_constants(THREE_LINES, LINF, L1, K, seed=seed) for K in range(3)]
            )
            for seed in (1, 2)
        ]
        assert rows[0] == rows[1]
        header, *lines = (line.split(",") for line in rows[0].splitlines())
        for cells in lines:
            errors = [c for name, c in zip(header, cells) if name.endswith("ci") and c]
            assert errors and all(float(c) == 0.0 for c in errors)


class TestCylinderConstant:
    def test_euclidean_line(self):
        line = orthonormal_basis([[3.0, 4.0]])
        est = cylinder_constant(L2, L2, line)
        assert est.value == pytest.approx(4.0)  # alpha(1) * alpha(1)
        assert est.std_err == 0.0

    def test_box_fidelity_with_l1_data_on_the_diagonal(self):
        diag = orthonormal_basis([[1.0, 1.0]])
        est = cylinder_constant(LINF, L1, diag, n_samples=100_000)
        assert est.std_err == 0.0
        assert est.value == pytest.approx(4.0, rel=1e-15)  # 2 sqrt(2) * sqrt(2)

    def test_weighted_lp_estimates_are_the_reference_draws(self):
        wl3 = NORMS3["wl3"]
        plane = orthonormal_basis([[1.0, 0.0, 1.0], [0.0, 1.0, 2.0]])
        for subid in (0, 5):
            shadow = projected_ball_volume(wl3, plane, 4000, 9, subid)
            inner = slice_volume(wl3, plane, 4000, 9, subid)
            assert shadow.std_err > 0.0 and inner.std_err > 0.0
            assert shadow == monte_carlo_volume("shadow", wl3, plane, 4000, 9, subid)
            assert inner == monte_carlo_volume("slice", wl3, plane, 4000, 9, subid)


class TestOverlapConstant:
    def test_orthogonal_lines_meet_at_the_origin(self):
        e1 = orthonormal_basis([[1.0, 0.0]])
        e2 = orthonormal_basis([[0.0, 1.0]])
        est = overlap_constant(L2, L2, e1, e2)
        assert est.value == pytest.approx(4.0 * math.pi)  # alpha(2) * (2 delta2)^2
        assert est.std_err == 0.0
        swapped = overlap_constant(L2, L2, e2, e1)
        assert swapped.value == est.value

    def test_planes_sharing_a_line(self):
        a = orthonormal_basis([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b = orthonormal_basis([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        est = overlap_constant(L2, L2, a, b)
        assert est.value == pytest.approx(8.0 * math.pi)  # pi * 4 * alpha(1)
        assert est.std_err == 0.0

    def test_rejects_equal_or_mismatched_spans(self):
        e1 = orthonormal_basis([[1.0, 0.0]])
        e1_again = orthonormal_basis([[-2.0, 0.0]])
        with pytest.raises(ValueError):
            overlap_constant(L2, L2, e1, e1_again)
        with pytest.raises(ValueError):
            overlap_constant(L2, L2, e1, orthonormal_basis(np.eye(2)))


class TestOverlapCap:
    def test_formula(self):
        equiv = compute_equiv_constants(L2, L1, 3)
        cap = overlap_cap(3, 1, 4, equiv)
        expected = (
            12 * math.pi * (2.0 * equiv.delta2) ** 2 * 2.0 * equiv.delta3
        )
        assert cap == pytest.approx(expected, rel=1e-12)

    def test_tight_in_the_euclidean_point_meet_case(self):
        equiv = compute_equiv_constants(L2, L2, 2)
        consts = assemble_constants(AXES2, L2, L2, 1)
        assert consts.q_totals[0].value == pytest.approx(
            overlap_cap(2, 0, 2, equiv), rel=1e-12
        )

    def test_strict_for_short_slices(self):
        # Planes meeting along the diagonal of the first two coordinates:
        # the l1 slice of that line has length sqrt(2) < alpha(1) delta3.
        a = orthonormal_basis([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        b = orthonormal_basis([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
        equiv = compute_equiv_constants(L2, L1, 3)
        total = VolumeEstimate(0.0)
        for pair in ((a, b), (b, a)):
            est = overlap_constant(L2, L1, *pair, n_samples=50_000)
            total = VolumeEstimate(total.value + est.value, total.std_err + est.std_err)
        assert total.value + 3.0 * total.std_err < overlap_cap(3, 1, 2, equiv)

    def test_guards(self):
        equiv = compute_equiv_constants(L2, L2, 2)
        with pytest.raises(ValueError):
            overlap_cap(2, 3, 2, equiv)
        with pytest.raises(ValueError):
            overlap_cap(2, 0, -1, equiv)


class TestAssembleConstants:
    def test_two_axis_dictionary_is_fully_closed_form(self):
        c0 = assemble_constants(AXES2, L2, L2, 0)
        c1 = assemble_constants(AXES2, L2, L2, 1)
        c2 = assemble_constants(AXES2, L2, L2, 2)
        assert c0.c_total.value == pytest.approx(math.pi)
        assert c1.c_total.value == pytest.approx(8.0)
        assert c2.c_total.value == pytest.approx(math.pi)
        assert all(c.c_total.std_err == 0.0 for c in (c0, c1, c2))
        assert c0.q_totals == {} and c2.q_totals == {}
        assert c1.q_totals[0].value == pytest.approx(8.0 * math.pi)
        assert (c0.delta_gate, c1.delta_gate, c2.delta_gate) == (1.0, 2.0, 2.0)
        assert c1.delta_hat == 1.0 and c1.delta_pair == 2.0
        assert c1.k_min == 0
        assert len(c1.c_members) == 2

    def test_three_line_dictionary(self):
        c1 = assemble_constants(THREE_LINES, L2, L2, 1)
        assert c1.c_total.value == pytest.approx(12.0)
        assert c1.q_totals[0].value == pytest.approx(24.0 * math.pi)

    def test_general_norm_widths(self):
        c1 = assemble_constants(AXES2, L2, L1, 1, n_samples=2000)
        bar = compute_equiv_constants(L2, L1, 2).delta_bar
        assert bar == pytest.approx(math.sqrt(2.0))
        assert c1.delta_hat == pytest.approx(bar)
        assert c1.delta_pair == pytest.approx(3.0 * bar)
        assert c1.delta_gate == pytest.approx(3.0 * bar)

    def test_level_guard(self):
        with pytest.raises(ValueError):
            assemble_constants(AXES2, L2, L2, 3)

    @pytest.mark.parametrize("data", NORMS3)
    @pytest.mark.parametrize("fidelity", NORMS3)
    def test_member_constants_are_the_one_basis_constants(self, fidelity, data):
        # One dictionary for every level, so the later levels price through
        # a memo that the earlier levels' members and meets filled.
        dictionary = Dictionary.from_vectors(DEPENDENT3)
        f, d = NORMS3[fidelity], NORMS3[data]
        for K in range(4):
            c = assemble_constants(dictionary, f, d, K, n_samples=500, seed=3)
            assert c.c_members == tuple(
                cylinder_constant(f, d, member, 500, 3, subid=i)
                for i, member in enumerate(c.family.members)
            )

    def test_closed_form_pair_levels_list_no_pairs(self, monkeypatch):
        listed = []
        original = bounds.enumerate_pairs

        def spy(family, k):
            listed.append((family.K, k))
            return original(family, k)

        monkeypatch.setattr(bounds, "enumerate_pairs", spy)
        dictionary = Dictionary.from_vectors(np.random.default_rng(2).standard_normal((7, 4)))
        for fidelity in (L2, L1):
            for K in range(5):
                assemble_constants(dictionary, fidelity, L2, K)
        assert listed == []
        for K in range(5):
            assemble_constants(dictionary, L2, L1, K)
        # l1 data lists its pairs at k = 1 (K = 2) and k = 2 (K = 3) only.
        assert listed == [(2, 1), (3, 2)]


class TestOrderFreeSums:
    """C_K and every Q_k are correctly rounded sums, so the order of the
    family's members cannot move their bits.  Weighted lp with p > 1 is
    left out: its Monte Carlo streams are numbered by member and pair
    position."""

    @settings(max_examples=40, deadline=None)
    @given(
        dependent_dictionaries(),
        st.sampled_from(["l2", "l1", "linf", "weighted"]),
        st.sampled_from(["l2", "l1", "linf", "weighted"]),
        st.integers(0, 2**32 - 1),
    )
    def test_permuted_members_keep_the_bits(self, case, fidelity, data, seed):
        atoms, n = case[0].atoms.T, case[0].n_dim
        f, d = named_norm(fidelity, n), named_norm(data, n)
        rng = np.random.default_rng(seed)

        def permuted(dictionary, K):
            family = span_family(dictionary, K)
            order = rng.permutation(len(family))
            return SpanFamily(
                family.K, family.ambient_dim, family.span_tol,
                family.bases[order], family.provenances[order],
            )

        # Two dictionaries, so the two runs share no memo of exact volumes.
        plain, shuffled = Dictionary.from_vectors(atoms), Dictionary.from_vectors(atoms)
        for K in range(n + 1):
            expected = assemble_constants(plain, f, d, K)
            with mock.patch.object(bounds, "span_family", permuted):
                got = assemble_constants(shuffled, f, d, K)
            assert got.c_total == expected.c_total
            assert got.q_totals == expected.q_totals


    @pytest.mark.xfail(
        strict=True,
        reason="an exact volume is keyed by its member basis's projector rounded to 2^-46, "
        "and a span's member basis depends on which atoms generate it first",
    )
    def test_polyhedral_constants_do_not_depend_on_the_order_of_the_atoms(self):
        # 9 Gaussian atoms in R^5 with l1 fidelity: reversing them moves the
        # last digits of C_2 (112.71468277405239 against ...242) and of C_3.
        atoms = np.random.default_rng(3).standard_normal((9, 5))

        def constants(vectors):
            dictionary = Dictionary.from_vectors(vectors)
            return constants_to_csv([assemble_constants(dictionary, L1, L2, K) for K in range(6)])

        assert constants(atoms) == constants(atoms[::-1])


class TestOverlapBudget:
    def test_hand_formula(self):
        c1 = assemble_constants(AXES2, L2, L2, 1)
        for tau, theta in ((0.05, 1.0), (0.1, 2.0)):
            total, err = overlap_budget(c1, tau, theta)
            assert total == pytest.approx(8.0 * math.pi * (tau / theta) ** 2)
            assert err == 0.0

    def test_extreme_levels_vanish(self):
        for K in (0, 2):
            c = assemble_constants(AXES2, L2, L2, K)
            assert overlap_budget(c, 0.1, 1.0) == (0.0, 0.0)

    def test_guards(self):
        c1 = assemble_constants(AXES2, L2, L2, 1)
        with pytest.raises(ValueError):
            overlap_budget(c1, -0.1, 1.0)


@pytest.fixture(scope="module")
def axes_constants():
    return tuple(assemble_constants(AXES2, L2, L2, K) for K in range(3))


DISK = VolumeEstimate(math.pi)


class TestBoundReports:
    def test_measure_sandwich_contains_the_exact_strip_area(self, axes_constants):
        for tau in (0.01, 0.02, 0.05, 0.1):
            rep = bound_report(Quantity.MEASURE_LEQ, 1, tau, 1.0, axes_constants)
            truth = two_strip_area(tau)
            assert rep.valid
            assert rep.lower <= truth <= rep.upper
            assert rep.lower == pytest.approx(
                8.0 * tau * (1.0 - tau) - 8.0 * math.pi * tau * tau, rel=1e-12
            )
            assert rep.upper == pytest.approx(8.0 * tau * (1.0 + tau), rel=1e-12)
            assert rep.eps_terms["overlap"] == pytest.approx(8.0 * math.pi * tau * tau)

    def test_measure_point_mass_at_level_zero(self, axes_constants):
        tau = 0.07
        rep = bound_report(Quantity.MEASURE_EQ, 0, tau, 1.0, axes_constants)
        assert rep.lower == pytest.approx(math.pi * tau * tau, rel=1e-12)
        assert rep.upper == pytest.approx(math.pi * tau * tau, rel=1e-12)

    def test_shell_sandwich_contains_the_exact_shell_area(self, axes_constants):
        for tau in (0.02, 0.05):
            rep = bound_report(Quantity.MEASURE_EQ, 1, tau, 1.0, axes_constants)
            truth = two_strip_area(tau) - math.pi * tau * tau
            assert rep.lower <= truth <= rep.upper
            assert set(rep.eps_terms) == {
                "overlap", "previous_ceiling", "previous_floor", "previous_overlap",
            }

    def test_probability_versions_divide_by_the_ball(self, axes_constants):
        tau = 0.05
        meas = bound_report(Quantity.MEASURE_LEQ, 1, tau, 1.0, axes_constants)
        prob = bound_report(Quantity.PROB_LEQ, 1, tau, 1.0, axes_constants, DISK)
        assert prob.lower == pytest.approx(meas.lower / math.pi, rel=1e-12)
        assert prob.upper == pytest.approx(meas.upper / math.pi, rel=1e-12)
        assert prob.lower <= two_strip_area(tau) / math.pi <= prob.upper

    def test_saturated_level_contains_probability_one(self, axes_constants):
        rep = bound_report(Quantity.PROB_LEQ, 2, 0.1, 1.0, axes_constants, DISK)
        assert rep.lower <= 1.0 <= rep.upper

    def test_expectation_sandwich(self, axes_constants):
        tau = 0.02
        rep = bound_report(Quantity.EXPECT, None, tau, 1.0, axes_constants[:2], DISK)
        truth = 2.0 - tau * tau - two_strip_area(tau) / math.pi
        assert rep.valid
        assert rep.lower <= truth <= rep.upper
        assert rep.upper - rep.lower < 0.02

    def test_bounds_collapse_as_tau_shrinks(self, axes_constants):
        def spread(tau):
            rep = bound_report(Quantity.PROB_LEQ, 1, tau, 1.0, axes_constants, DISK)
            return rep.upper / rep.lower

        assert spread(1e-3) < spread(1e-2) < spread(5e-2)
        assert spread(1e-3) < 1.02

    def test_validity_gate(self, axes_constants):
        rep = bound_report(Quantity.MEASURE_LEQ, 1, 0.51, 1.0, axes_constants)
        assert rep.valid is False
        assert rep.lower is None and rep.upper is None
        exp = bound_report(Quantity.EXPECT, None, 0.51, 1.0, axes_constants[:2], DISK)
        assert exp.valid is False

    def test_sandwich_orders_correctly_at_random_valid_points(self, axes_constants):
        rng = np.random.default_rng(17)
        for _ in range(50):
            theta = float(rng.uniform(0.5, 3.0))
            tau = float(rng.uniform(0.001, theta / 2.001))
            for K in range(len(axes_constants)):
                for q in Quantity:
                    level = None if q is Quantity.EXPECT else K
                    rep = bound_report(q, level, tau, theta, axes_constants, DISK)
                    assert rep.valid
                    assert rep.lower <= rep.upper

    @pytest.mark.parametrize(
        "fid, data", [(L2, L2), (LINF, L1), (L2, NORMS3["wl3"])], ids=["l2-l2", "linf-l1", "l2-wl3"]
    )
    def test_every_quantity_composes_the_per_level_sandwiches(self, fid, data):
        # wl3 data carries Monte Carlo standard errors, so the error sums are not all 0 + 0.
        levels = [
            assemble_constants(Dictionary.from_vectors(DEPENDENT3), fid, data, K, n_samples=4000)
            for K in range(4)
        ]
        ball = ball_volume(data, 3)
        for tau, theta in ((0.01, 1.0), (0.02, 0.5), (0.005, 2.0), (0.03, 1.5)):
            leq = [bound_report(Quantity.MEASURE_LEQ, K, tau, theta, levels) for K in range(4)]
            for K in range(1, 4):
                eq = bound_report(Quantity.MEASURE_EQ, K, tau, theta, levels)
                assert eq.valid
                assert eq.lower == leq[K].lower - leq[K - 1].upper
                assert eq.upper == leq[K].upper - leq[K - 1].lower
                assert eq.lower_std_err == leq[K].lower_std_err + leq[K - 1].upper_std_err
                assert eq.upper_std_err == leq[K].upper_std_err + leq[K - 1].lower_std_err
                assert eq.eps_terms["overlap"] == leq[K].eps_terms["overlap"]
                assert eq.eps_terms["previous_ceiling"] == leq[K - 1].upper
                assert eq.eps_terms["previous_overlap"] == leq[K - 1].eps_terms["overlap"]
            assert any(r.lower_std_err for r in leq) == (data.kind == "wlp")
            probs = [bound_report(Quantity.PROB_LEQ, K, tau, theta, levels, ball) for K in range(3)]
            expect = bound_report(Quantity.EXPECT, None, tau, theta, levels, ball)
            assert expect.lower == reduce(operator.sub, [p.upper for p in probs], 3.0)
            assert expect.upper == reduce(operator.sub, [p.lower for p in probs], 3.0)
            assert expect.lower_std_err == reduce(operator.add, [p.upper_std_err for p in probs])
            assert expect.upper_std_err == reduce(operator.add, [p.lower_std_err for p in probs])

    def test_monte_carlo_uncertainty_propagates(self):
        # Slices of a weighted l3 ball have no exact value, and the diagonal
        # atom's slice is strictly inside its sampling box, so this
        # constant set carries real Monte Carlo error.
        wl3 = NormSpec.weighted_lp(3.0, [1.0, 2.0])
        noisy = assemble_constants(THREE_LINES, L2, wl3, 1, n_samples=4000)
        assert noisy.c_total.std_err > 0.0
        rep = bound_report(Quantity.MEASURE_LEQ, 1, 0.02, 1.0, {1: noisy})
        assert rep.upper_std_err > 0.0
        assert rep.lower_std_err > 0.0

    def test_required_input_errors(self, axes_constants):
        with pytest.raises(ValueError, match="level 1"):
            bound_report(Quantity.MEASURE_LEQ, 1, 0.05, 1.0, {})
        with pytest.raises(ValueError, match="level 0"):
            bound_report(Quantity.MEASURE_EQ, 1, 0.05, 1.0, {1: axes_constants[1]})
        with pytest.raises(ValueError, match="level 1"):
            bound_report(
                Quantity.MEASURE_EQ, 2, 0.05, 1.0,
                {1: axes_constants[0], 2: axes_constants[2]},
            )
        with pytest.raises(ValueError, match="data_ball_vol"):
            bound_report(Quantity.PROB_LEQ, 1, 0.05, 1.0, axes_constants)
        with pytest.raises(ValueError, match="data_ball_vol"):
            bound_report(Quantity.EXPECT, None, 0.05, 1.0, axes_constants[:2])
        with pytest.raises(ValueError, match="level 0"):
            bound_report(Quantity.EXPECT, None, 0.05, 1.0, axes_constants[1:], DISK)
        with pytest.raises(ValueError):
            bound_report(Quantity.MEASURE_LEQ, 1, -0.05, 1.0, axes_constants)
        with pytest.raises(ValueError):
            bound_report("bogus", 1, 0.05, 1.0, axes_constants)

    def test_quantity_round_trip(self):
        assert Quantity("prob_leq") is Quantity.PROB_LEQ
        assert Quantity.EXPECT.value == "expect"


@pytest.fixture(scope="module", params=[(L2, L2), (LINF, L1)], ids=["l2-l2", "linf-l1"])
def dependent_levels(request):
    fid, data = request.param
    dictionary = Dictionary.from_vectors(DEPENDENT3)
    levels = tuple(assemble_constants(dictionary, fid, data, K) for K in range(4))
    return levels, ball_volume(data, 3)


class TestReportLevels:
    def test_the_rule_for_every_quantity_and_level(self):
        n = 3
        for q, K, _ in validation_cells(Quantity, range(n + 1), (0.01,)):
            if q is Quantity.EXPECT:
                expected = (0, 1, 2)
            elif q in (Quantity.MEASURE_EQ, Quantity.PROB_EQ) and K >= 1:
                expected = (K - 1, K)
            else:
                expected = (K,)
            assert bounds.report_levels(q, K, n) == expected
            assert bounds.report_levels(q.value, K, n) == expected

    def test_guards(self):
        for q in Quantity:
            if q is not Quantity.EXPECT:
                for K in (-1, 4, None):
                    with pytest.raises(ValueError):
                        bounds.report_levels(q, K, 3)
        for K in (0, 2):
            with pytest.raises(ValueError):
                bounds.report_levels(Quantity.EXPECT, K, 3)

    def test_a_report_reads_only_the_levels_the_rule_names(self, dependent_levels):
        levels, ball = dependent_levels
        for theta in (1.0, 0.5):
            for q, K, tau in validation_cells(Quantity, range(4), (0.01, 0.05, 0.2)):
                full = bound_report(q, K, tau, theta, levels, ball)
                read = bounds.report_levels(q, K, 3)
                only = {k: levels[k] for k in read}
                assert bound_report(q, K, tau, theta, only, ball) == full
                for k in read:
                    missing = {j: c for j, c in only.items() if j != k}
                    with pytest.raises(ValueError, match=f"level {k}"):
                        bound_report(q, K, tau, theta, missing, ball)
                    moved = {**only, k: levels[(k + 1) % 4]}
                    with pytest.raises(ValueError, match=f"level {k}"):
                        bound_report(q, K, tau, theta, moved, ball)

    @pytest.mark.parametrize("K_list", [(0,), (2,), (0, 3), (1, 2, 3), (0, 1, 2, 3)])
    def test_bound_levels_is_the_union_over_the_cells(self, K_list):
        for size in range(1, len(Quantity) + 1):
            for quantities in combinations(Quantity, size):
                union = {
                    k
                    for q, K, _ in validation_cells(quantities, K_list, (0.01, 0.05))
                    for k in bounds.report_levels(q, K, 3)
                }
                assert bounds.bound_levels(quantities, K_list, 3) == tuple(sorted(union))


class TestConstantsCsv:
    def test_exact_rendering(self, axes_constants):
        text = constants_to_csv(axes_constants)
        lines = text.splitlines()
        assert lines[0] == (
            "K,C_K,kK,Q_0,Q_1,deltaHat,Delta_K,ci,deltaPrime,Q_0_ci,Q_1_ci"
        )
        assert lines[1] == "0,3.141592653589793,0,,,1.0,1.0,0.0,,,"
        assert lines[3] == "2,3.141592653589793,2,,,1.0,2.0,0.0,,,"
        cells = lines[2].split(",")
        assert cells[0] == "1" and cells[2] == "0"
        assert float(cells[1]) == pytest.approx(8.0, rel=1e-14)
        assert float(cells[3]) == pytest.approx(8.0 * math.pi, rel=1e-14)
        assert cells[4] == "" and cells[10] == ""
        assert cells[5:10] == ["1.0", "2.0", "0.0", "2.0", "0.0"]
        assert text == constants_to_csv(list(axes_constants))
        assert text == constants_to_csv(tuple(reversed(axes_constants)))

    def test_guards(self, axes_constants):
        with pytest.raises(ValueError):
            constants_to_csv([])
        other = assemble_constants(
            Dictionary.from_vectors(np.eye(3)), L2, L2, 0
        )
        with pytest.raises(ValueError):
            constants_to_csv([axes_constants[0], other])
