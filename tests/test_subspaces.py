"""Dictionaries, bases, intersections, and span-family enumeration."""

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l0geom import (
    Dictionary,
    L0Solver,
    LevelSetExperiment,
    NormSpec,
    SubspaceBasis,
    assemble_constants,
    empty_basis,
    enumerate_pairs,
    enumerate_spans,
    intersection_basis,
    intersection_dim,
    orthonormal_basis,
    overlap_constant,
    spans_equal,
    validate_bounds,
)
from l0geom import sizes, subspaces
from l0geom.subspaces import pair_dims

E1E2 = Dictionary.from_vectors([[1.0, 0.0], [0.0, 1.0]])
THREE_LINES = Dictionary.from_vectors([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def random_dictionary(rng, n, m):
    while True:
        atoms = rng.standard_normal((m, n))
        try:
            return Dictionary.from_vectors(atoms)
        except ValueError:
            continue


class TestDictionary:
    def test_shape_and_subset(self):
        d = THREE_LINES
        assert (d.n_dim, d.n_atoms) == (2, 3)
        np.testing.assert_array_equal(d.subset((0, 2)), [[1.0, 1.0], [0.0, 1.0]])

    def test_rejects_zero_atom(self):
        with pytest.raises(ValueError, match="zero atom"):
            Dictionary.from_vectors([[1.0, 0.0], [0.0, 0.0]])

    def test_rejects_rank_deficient_dictionary(self):
        with pytest.raises(ValueError, match="does not span"):
            Dictionary.from_vectors([[1.0, 0.0], [2.0, 0.0]])

    def test_json_round_trip(self):
        loaded = Dictionary.from_dict(THREE_LINES.to_dict())
        np.testing.assert_array_equal(loaded.atoms, THREE_LINES.atoms)
        with pytest.raises(ValueError):
            Dictionary.from_dict({"atoms": [[1.0]]})


class TestBases:
    def test_basis_of_vectors_whose_svd_fails_to_converge(self):
        # LAPACK's divide-and-conquer SVD does not converge on this 5 x 4
        # matrix in some builds; the basis comes from its transpose instead.
        vectors = np.array(
            [[2, 2, -1, -2, 1], [-2, 1, -2, 1, 2], [1, -2, 1, -2, 1], [2, -1, -2, 1, -2]],
            dtype=float,
        )
        b = orthonormal_basis(vectors)
        assert b.dim == 4
        np.testing.assert_allclose(b.projector() @ vectors.T, vectors.T, atol=1e-12)
        assert b.complement().dim == 1

    def test_stacked_svd_retries_on_the_transposes(self, monkeypatch):
        real_svd = np.linalg.svd
        failures = []

        def fails_once_on_a_stack(a, *args, **kwargs):
            if np.ndim(a) == 3 and not failures:
                failures.append(np.shape(a))
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        d = Dictionary.from_vectors(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        expected = enumerate_spans(d, 2)
        monkeypatch.setattr(np.linalg, "svd", fails_once_on_a_stack)
        stack = np.random.default_rng(4).standard_normal((5, 4, 2))
        u, s = subspaces._left_singular(stack, full_matrices=False)
        assert failures == [(5, 4, 2)]
        for i, matrix in enumerate(stack):
            _, s_i, ut_i = real_svd(matrix.T, full_matrices=False)
            np.testing.assert_array_equal(u[i], ut_i.T)
            np.testing.assert_array_equal(s[i], s_i)
        failures.clear()
        retried = enumerate_spans(d, 2)
        assert failures == [(10, 3, 2)]
        assert [m.provenance for m in retried.members] == [m.provenance for m in expected.members]
        assert [m.provenance for m in expected.members] == [(0, 1), (0, 4), (1, 4), (3, 4)]
        assert all(spans_equal(a, b) for a, b in zip(retried.members, expected.members))

    @pytest.mark.parametrize("fail", [False, True])
    def test_stacked_complements_are_each_members_own(self, monkeypatch, fail):
        real_svd = np.linalg.svd
        stack = np.random.default_rng(8).standard_normal((6, 5, 2))
        bases = [orthonormal_basis(matrix.T) for matrix in stack]
        alone = [basis.complement().matrix for basis in bases]
        reference = [subspaces._left_singular(b.matrix, full_matrices=True)[0][:, 2:] for b in bases]

        def fails_on_a_stack(a, *args, **kwargs):
            if np.ndim(a) == 3 and len(a) > 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        if fail:  # the stack fails to converge, and each member alone does not
            monkeypatch.setattr(np.linalg, "svd", fails_on_a_stack)
        comps = subspaces._complements(np.stack([b.matrix for b in bases]))
        assert comps.shape == (6, 5, 3)
        for comp, own, ref in zip(comps, alone, reference):
            assert comp.tobytes() == own.tobytes() == ref.tobytes()
        np.testing.assert_array_equal(subspaces._complements(np.zeros((2, 4, 0))), [np.eye(4)] * 2)

    def test_orthonormal_basis_examples(self):
        b = orthonormal_basis([[3.0, 0.0], [0.0, 0.0]])
        assert b.dim == 1
        np.testing.assert_allclose(np.abs(b.matrix), [[1.0], [0.0]], atol=1e-12)
        assert orthonormal_basis([[1.0, 0.0], [0.0, 2.0]]).dim == 2
        # Near-dependent second vector is dropped at the default tolerance.
        assert orthonormal_basis([[1.0, 0.0], [1.0, 1e-12]]).dim == 1
        assert orthonormal_basis(np.zeros((0, 3))).dim == 0

    def test_projector_idempotence(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(0, n + 1))
            basis = orthonormal_basis(rng.standard_normal((k, n)))
            p = basis.projector()
            assert np.linalg.norm(p @ p - p) <= 1e-10

    def test_complement(self):
        basis = orthonormal_basis([[1.0, 1.0, 0.0]])
        comp = basis.complement()
        assert comp.dim == 2
        assert np.linalg.norm(basis.matrix.T @ comp.matrix) <= 1e-12
        assert empty_basis(3).complement().dim == 3

    def test_basis_validation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            SubspaceBasis(np.array([[1.0], [1.0]]))
        with pytest.raises(ValueError):
            SubspaceBasis(np.ones((1, 2)))

    def test_spans_equal(self):
        a = orthonormal_basis([[1.0, 1.0]])
        b = orthonormal_basis([[-2.0, -2.0]])
        c = orthonormal_basis([[1.0, 0.0]])
        assert spans_equal(a, b)
        assert not spans_equal(a, c)
        assert not spans_equal(a, empty_basis(2))
        with pytest.raises(ValueError):
            spans_equal(a, empty_basis(3))


class TestIntersections:
    def test_two_planes_sharing_an_axis(self):
        xy = orthonormal_basis([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        yz = orthonormal_basis([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert intersection_dim(xy, yz) == 1
        meet = intersection_basis(xy, yz)
        assert meet.dim == 1
        np.testing.assert_allclose(np.abs(meet.matrix), [[0.0], [1.0], [0.0]], atol=1e-10)

    def test_disjoint_lines_and_identical_spans(self):
        x = orthonormal_basis([[1.0, 0.0]])
        y = orthonormal_basis([[0.0, 1.0]])
        assert intersection_dim(x, y) == 0
        assert intersection_basis(x, y).dim == 0
        assert intersection_dim(x, x) == 1
        assert intersection_dim(x, empty_basis(2)) == 0

    def test_dimension_matches_projector_spectrum_oracle(self):
        # Independent route: the intersection dimension equals the number of
        # unit eigenvalues of P_a P_b P_a.
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            ka = int(rng.integers(1, n + 1))
            kb = int(rng.integers(1, n + 1))
            shared = int(rng.integers(0, min(ka, kb) + 1))
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            a_cols = q[:, :ka]
            # Reuse `shared` columns of a, fill the rest from fresh directions.
            pool = rng.standard_normal((n, kb - shared)) if kb > shared else np.zeros((n, 0))
            b_cols = np.hstack([q[:, :shared], pool])
            a = orthonormal_basis(a_cols.T)
            b = orthonormal_basis(b_cols.T)
            if b.dim != kb:
                continue
            pa, pb = a.projector(), b.projector()
            eigs = np.linalg.eigvalsh(pa @ pb @ pa)
            oracle = int(np.sum(eigs > 1.0 - 1e-8))
            assert intersection_dim(a, b) == oracle
            meet = intersection_basis(a, b)
            assert meet.dim == oracle
            # Every intersection direction lies in both spans.
            if meet.dim:
                assert np.linalg.norm(pa @ meet.matrix - meet.matrix) <= 1e-8
                assert np.linalg.norm(pb @ meet.matrix - meet.matrix) <= 1e-8


class TestSpanFamilies:
    def test_level_zero_and_full(self):
        fam0 = enumerate_spans(THREE_LINES, 0)
        assert len(fam0) == 1 and fam0.members[0].dim == 0
        fam2 = enumerate_spans(THREE_LINES, 2)
        assert len(fam2) == 1
        assert fam2.members[0].provenance == (0, 1)

    def test_three_lines(self):
        fam = enumerate_spans(THREE_LINES, 1)
        assert [m.provenance for m in fam.members] == [(0,), (1,), (2,)]
        assert all(m.dim == 1 for m in fam.members)

    def test_parallel_atoms_deduplicate_to_smallest_index(self):
        d = Dictionary.from_vectors([[2.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        fam = enumerate_spans(d, 1)
        assert [m.provenance for m in fam.members] == [(0,), (2,)]

    def test_rank_deficient_subsets_are_skipped(self):
        d = Dictionary.from_vectors([[2.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        fam = enumerate_spans(d, 2)
        # Subset (0, 1) is rank one; the single plane comes from (0, 2).
        assert [m.provenance for m in fam.members] == [(0, 2)]

    def test_out_of_range_level(self):
        with pytest.raises(ValueError):
            enumerate_spans(E1E2, 3)
        with pytest.raises(ValueError):
            enumerate_spans(E1E2, -1)

    def test_subset_cap_fails_fast(self, monkeypatch):
        monkeypatch.setattr(sizes, "MAX_SPAN_SUBSETS", 2)
        with pytest.raises(ValueError, match=r"m=3 atoms at K=1 .*C\(3, 1\) = 3 .*cap of 2"):
            enumerate_spans(THREE_LINES, 1)
        assert len(enumerate_spans(THREE_LINES, 0)) == 1
        monkeypatch.setattr(sizes, "MAX_SPAN_SUBSETS", 3)
        assert len(enumerate_spans(THREE_LINES, 1)) == 3

    def test_validate_refuses_every_level_before_any_work(self, monkeypatch):
        # The bounds of K_list [1] need levels 0 and 1 only, but the distance
        # profiles need level 2 too, whose C(5, 2) = 10 subsets exceed the cap.
        from l0geom import montecarlo, solver

        d = Dictionary.from_vectors(np.vstack([np.eye(3), [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]]))
        l2 = NormSpec.l2()
        monkeypatch.setattr(sizes, "MAX_SPAN_SUBSETS", 9)
        entered = []
        for name in ("assemble_constants", "sample_levelset_batch"):
            monkeypatch.setattr(montecarlo, name, lambda *a, name=name, **k: entered.append(name))
        monkeypatch.setattr(solver, "enumerate_spans", lambda *a: entered.append("spans"))
        cap = r"m=5 atoms at K=2 .*C\(5, 2\) = 10 .*cap of 9 \(sizes.MAX_SPAN_SUBSETS\)"
        with pytest.raises(ValueError, match=cap):
            validate_bounds(d, l2, l2, [0.1], 1.0, [1], quantities=["prob_leq"], n_samples=50)
        with pytest.raises(ValueError, match=cap):
            LevelSetExperiment(d, l2, l2, 1.0, 50, 0).estimate("prob_leq", 1, 0.1)
        assert entered == []

    def test_whole_space_is_not_capped(self, monkeypatch):
        # C(6, 2) = 15 is above the cap, but the K = N family is one span:
        # the first full-rank subset, here (0, 2) since (0, 1) is parallel.
        d = Dictionary.from_vectors(
            [[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0], [2.0, 1.0]]
        )
        monkeypatch.setattr(sizes, "MAX_SPAN_SUBSETS", 10)
        fam = enumerate_spans(d, 2)
        assert [m.provenance for m in fam.members] == [(0, 2)]
        monkeypatch.setattr(sizes, "MAX_SPAN_SUBSETS", 20)
        uncapped = enumerate_spans(d, 2)
        assert [m.provenance for m in uncapped.members] == [(0, 2)]
        np.testing.assert_array_equal(fam.members[0].matrix, uncapped.members[0].matrix)

    def test_capped_dictionary_still_validates_and_solves(self, monkeypatch):
        # validate enumerates every level 0..N and a dense vector climbs to
        # level N, so neither may trip the cap when only C(m, N) exceeds it.
        d = Dictionary.from_vectors(
            [[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0], [2.0, 1.0]]
        )
        monkeypatch.setattr(sizes, "MAX_SPAN_SUBSETS", 10)
        solver = L0Solver(d, NormSpec.l2())
        profiles = solver.distance_profiles(np.array([[0.5, 0.3], [0.0, 0.0]]))
        assert profiles.shape == (2, 3)
        result = solver.solve(np.array([0.9, 0.31]), 0.01)
        assert (result.value, result.support) == (2, (0, 2))
        report = validate_bounds(
            d, NormSpec.l2(), NormSpec.l2(), [0.5], theta=1.0, K_list=[1], n_samples=500
        )
        assert report.rows

    def test_family_properties_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(n, 7))
            d = random_dictionary(rng, n, m)
            for K in range(n + 1):
                fam = enumerate_spans(d, K)
                assert len(fam) <= comb(m, K)
                for member in fam.members:
                    assert member.dim == K
                    assert len(member.provenance) == K
                    assert all(0 <= i < m for i in member.provenance)
                for i, j in combinations(range(len(fam)), 2):
                    assert not spans_equal(fam.members[i], fam.members[j])
                # Completeness: every full-rank subset span appears.
                for subset in combinations(range(m), K):
                    basis = orthonormal_basis(d.subset(subset).T)
                    if basis.dim < K:
                        continue
                    assert any(spans_equal(basis, mem) for mem in fam.members)
                if K in (0, n):
                    assert len(fam) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 80), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1)
    )
    def test_first_rows_are_uniques_first_occurrences(self, rows, cols, values, seed):
        # Closure keys as enumerate_spans packs them, few values, so rows repeat.
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, values, (rows, cols)).astype(np.uint8) * np.uint8(85)
        keys = keys[rng.integers(0, rows, rows)]
        expected = np.sort(np.unique(keys, axis=0, return_index=True)[1])
        assert subspaces._first_rows(keys).tolist() == expected.tolist()


class TestPairEnumeration:
    def test_three_lines_all_ordered_pairs(self):
        fam = enumerate_spans(THREE_LINES, 1)
        pairs = enumerate_pairs(fam, 0)
        assert pairs.tolist() == [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]]

    def test_full_level_has_no_pairs(self):
        fam = enumerate_spans(THREE_LINES, 2)
        assert enumerate_pairs(fam, 0).shape == (0, 2)
        assert enumerate_pairs(fam, 1).shape == (0, 2)

    def test_planes_in_r3_never_meet_in_a_point(self):
        rng = np.random.default_rng(5)
        d = random_dictionary(rng, 3, 4)
        fam = enumerate_spans(d, 2)
        assert len(fam) == 6
        # Two distinct planes through the origin share at least a line.
        assert enumerate_pairs(fam, 0).shape == (0, 2)
        assert len(enumerate_pairs(fam, 1)) == 30

    def test_level_guard(self):
        fam = enumerate_spans(THREE_LINES, 1)
        with pytest.raises(ValueError):
            enumerate_pairs(fam, 2)


# The second atom is within 1e-7 of the first: one span at span_tol 1e-6,
# two at the 1e-9 default.
NEAR_PARALLEL = [[1.0, 0.0], [1.0, 1e-7], [0.0, 1.0]]


class TestDictionarySpanTolerance:
    def test_every_family_uses_the_dictionary_tolerance(self):
        d = Dictionary.from_vectors(NEAR_PARALLEL, span_tol=1e-6)
        l2 = NormSpec.l2()
        family = enumerate_spans(d, 1)
        assert family.span_tol == 1e-6
        assert [m.provenance for m in family.members] == [(0,), (2,)]
        assert [m.provenance for m in L0Solver(d, l2).family(1).members] == [(0,), (2,)]
        consts = assemble_constants(d, l2, l2, 1)
        assert [m.provenance for m in consts.family.members] == [(0,), (2,)]
        assert consts.c_total.value == pytest.approx(8.0, rel=1e-12)
        default = Dictionary.from_vectors(NEAR_PARALLEL)
        assert len(assemble_constants(default, l2, l2, 1).family) == 3

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
    def test_rejects_a_non_positive_tolerance(self, tol):
        with pytest.raises(ValueError, match="span_tol"):
            Dictionary.from_vectors(np.eye(2), span_tol=tol)

    def test_solver_span_tol_must_repeat_the_dictionary(self):
        d = Dictionary.from_vectors(NEAR_PARALLEL, span_tol=1e-6)
        l2 = NormSpec.l2()
        with pytest.raises(ValueError, match="span_tol"):
            L0Solver(d, l2, 1e-9)
        assert len(L0Solver(d, l2, 1e-6).family(1)) == 2

    def test_tuning_arguments_are_keyword_only(self):
        l2 = NormSpec.l2()
        with pytest.raises(TypeError):
            assemble_constants(E1E2, l2, l2, 1, 1_000)
        with pytest.raises(TypeError):
            validate_bounds(E1E2, l2, l2, (0.1,), 1.0, (1,), ("prob_leq",))
        with pytest.raises(TypeError):
            LevelSetExperiment(E1E2, l2, l2, 1.0, 10, 0, 1e-10)


class TestNearTolerance:
    """Atoms within span_tol of each other's spans: one rank rule decides both
    the family and its pair dimensions."""

    def test_atoms_within_span_tol_form_one_flat(self):
        angle = 1.5e-6
        d = Dictionary.from_vectors(
            [[1.0, 0.0], [np.cos(angle), np.sin(angle)], [0.0, 1.0]], span_tol=1e-6
        )
        family = enumerate_spans(d, 1)
        assert [m.provenance for m in family.members] == [(0,), (2,)]
        assert enumerate_pairs(family, 0).tolist() == [[0, 1], [1, 0]]
        assert enumerate_pairs(family, 1).shape == (0, 2)
        l2 = NormSpec.l2()
        consts = assemble_constants(d, l2, l2, 1)
        pair = overlap_constant(l2, l2, *family.members)
        assert consts.q_totals[0].value == 2 * pair.value

    def test_a_chain_of_near_parallel_atoms_fails_fast(self):
        # Neighbours are within span_tol, atoms two steps apart are not, so
        # the closures of atoms 0 and 1 differ while their spans coincide.
        step = 1.2e-6
        chain = [[np.cos(i * step), np.sin(i * step)] for i in range(3)]
        d = Dictionary.from_vectors(chain + [[0.0, 1.0]], span_tol=1e-6)
        family = enumerate_spans(d, 1)
        assert [m.provenance for m in family.members] == [(0,), (1,), (2,), (3,)]
        for _ in range(2):
            with pytest.raises(ValueError, match=r"members \(0,\) and \(1,\) have one span"):
                pair_dims(family)
        with pytest.raises(ValueError, match="have one span"):
            assemble_constants(d, NormSpec.l2(), NormSpec.l2(), 1)


class TestIdentityEquality:
    def test_dictionaries_bases_and_families_compare_by_identity(self):
        first, second = Dictionary.from_vectors(np.eye(2)), Dictionary.from_vectors(np.eye(2))
        assert first == first and first != second
        assert len({first, second, first}) == 2
        line = orthonormal_basis([[1.0, 0.0]])
        assert line == line and line != orthonormal_basis([[1.0, 0.0]])
        assert spans_equal(line, orthonormal_basis([[1.0, 0.0]]))
        assert len({line, line}) == 1
        family = enumerate_spans(first, 1)
        assert family == family and family != enumerate_spans(first, 1)
