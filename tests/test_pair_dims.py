"""Closure-keyed families, batched pair dimensions, memoised families and
closed-form overlap sums.

Property tests on small dictionaries with repeated, parallel and dependent
atoms check the closure-keyed families against the original projector
dedup, the batched rank pass against the per-pair rank oracle, the pair
lists against the original double loop, and every Q_k against the
per-pair sum of ``overlap_constant``.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from l0geom import (
    Dictionary,
    L0Solver,
    NormSpec,
    VolumeEstimate,
    assemble_constants,
    enumerate_pairs,
    enumerate_spans,
    intersection_dim,
    orthonormal_basis,
    overlap_constant,
)
from l0geom.solver import span_family
from l0geom.subspaces import pair_dims

L1, L2 = NormSpec.l1(), NormSpec.l2()


@st.composite
def structured_dictionaries(draw):
    """Dictionaries in R^n, n <= 5, m <= 8, with repeated, parallel and dependent atoms.

    Integer base atoms make the dependencies exact; an optional rotation
    turns them into dependencies up to rounding.
    """
    n = draw(st.integers(1, 5))
    entry = st.integers(-2, 2).map(float)
    base = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
    assume(np.linalg.matrix_rank(base) == n)
    atoms = list(base)
    for _ in range(draw(st.integers(0, 8 - n))):
        kind = draw(st.sampled_from(["repeat", "parallel", "sum", "fresh"]))
        i = draw(st.integers(0, len(atoms) - 1))
        j = draw(st.integers(0, len(atoms) - 1))
        if kind == "repeat":
            atom = atoms[i].copy()
        elif kind == "parallel":
            atom = atoms[i] * draw(st.sampled_from([-3.0, -1.0, 0.5, 2.0]))
        elif kind == "sum":
            atom = atoms[i] + atoms[j]
        else:
            atom = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
        assume(np.any(atom != 0.0))
        atoms.append(atom)
    atoms = np.array(atoms)[draw(st.permutations(range(len(atoms))))]
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32 - 1))
        q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        atoms = atoms @ (q * np.sign(np.diag(r))).T
    return Dictionary.from_vectors(atoms)


def projector_dedup_members(dictionary, K):
    """The span dedup that closure keys replaced, kept as the oracle: each
    full-rank subset's span is kept unless its projector lies within span_tol
    (Frobenius) of a kept one."""
    tol = dictionary.span_tol
    members, projectors = [], []
    for subset in combinations(range(dictionary.n_atoms), K):
        basis = orthonormal_basis(dictionary.subset(subset).T, tol=tol, provenance=subset)
        if basis.dim < K:
            continue
        proj = basis.projector()
        if any(np.linalg.norm(proj - q) <= tol for q in projectors):
            continue
        members.append(basis)
        projectors.append(proj)
    return members


def double_loop_pairs(family, k, tol=1e-9):
    """The per-pair enumeration that pair_dims replaced, kept as the oracle."""
    size = len(family.members)
    dims = {}
    for i in range(size):
        for j in range(i + 1, size):
            dims[(i, j)] = intersection_dim(family.members[i], family.members[j], tol)
    return tuple(
        (i, j)
        for i in range(size)
        for j in range(size)
        if i != j and dims[(min(i, j), max(i, j))] == k
    )


def per_pair_q_totals(family, fidelity, data, n_samples, seed):
    """Q_k as the ordered-pair sum of overlap_constant, each unordered pair priced once."""
    n, K = family.ambient_dim, family.K
    priced = {}
    totals = {}
    for k in range(max(0, 2 * K - n), K):
        value = err = 0.0
        for i, j in enumerate_pairs(family, k):
            key = (min(i, j), max(i, j))
            if key not in priced:
                priced[key] = overlap_constant(
                    fidelity, data, family.members[key[0]], family.members[key[1]],
                    n_samples, seed, subid=len(priced),
                )
            value += priced[key].value
            err += priced[key].std_err
        totals[k] = VolumeEstimate(value, err)
    return totals


class TestClosureFamilies:
    @settings(max_examples=150, deadline=None)
    @given(structured_dictionaries())
    def test_matches_the_projector_dedup(self, dictionary):
        for K in range(1, dictionary.n_dim):
            family = enumerate_spans(dictionary, K)
            expected = projector_dedup_members(dictionary, K)
            assert [m.provenance for m in family.members] == [m.provenance for m in expected]
            assert [m.matrix.tobytes() for m in family.members] == [
                m.matrix.tobytes() for m in expected
            ]


class TestPairDims:
    @settings(max_examples=120, deadline=None)
    @given(structured_dictionaries())
    def test_matches_intersection_dim_on_every_pair(self, dictionary):
        for K in range(1, dictionary.n_dim + 1):
            family = enumerate_spans(dictionary, K)
            dims = pair_dims(family)
            assert dims.shape == (len(family), len(family))
            for i, first in enumerate(family.members):
                assert dims[i, i] == K
                for j, second in enumerate(family.members):
                    if i != j:
                        assert dims[i, j] == intersection_dim(first, second)

    @settings(max_examples=120, deadline=None)
    @given(structured_dictionaries())
    def test_enumerate_pairs_matches_the_double_loop(self, dictionary):
        for K in range(dictionary.n_dim + 1):
            family = enumerate_spans(dictionary, K)
            for k in range(K + 1):
                assert enumerate_pairs(family, k) == double_loop_pairs(family, k)

    def test_memoised_per_family_and_read_only(self):
        vectors = [[1, 0], [0, 1], [1, 1]]
        family = span_family(Dictionary.from_vectors(vectors), 1)
        dims = pair_dims(family)
        assert pair_dims(family) is dims
        rebuilt = span_family(Dictionary.from_vectors(vectors, span_tol=1e-6), 1)
        assert (family.span_tol, rebuilt.span_tol) == (1e-9, 1e-6)
        assert rebuilt is not family and pair_dims(rebuilt) is not dims
        np.testing.assert_array_equal(dims, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        np.testing.assert_array_equal(pair_dims(rebuilt), dims)
        with pytest.raises(ValueError):
            dims[0, 1] = 1

    def test_single_member_and_zero_level(self):
        dictionary = Dictionary.from_vectors([[1, 0], [0, 1], [1, 1]])
        assert pair_dims(enumerate_spans(dictionary, 0)).tolist() == [[0]]
        assert pair_dims(enumerate_spans(dictionary, 2)).tolist() == [[2]]


class TestOverlapTotals:
    @settings(max_examples=40, deadline=None)
    @given(structured_dictionaries(), st.integers(0, 2**16))
    def test_l2_data_equals_the_per_pair_sum(self, dictionary, seed):
        for K in range(1, dictionary.n_dim):
            consts = assemble_constants(dictionary, L2, L2, K, seed=seed)
            expected = per_pair_q_totals(consts.family, L2, L2, 200_000, seed)
            assert consts.q_totals == expected

    @settings(max_examples=30, deadline=None)
    @given(structured_dictionaries(), st.integers(0, 2**16))
    def test_l1_data_equals_the_per_pair_sum(self, dictionary, seed):
        for K in range(1, dictionary.n_dim):
            consts = assemble_constants(dictionary, L2, L1, K, n_samples=64, seed=seed)
            expected = per_pair_q_totals(consts.family, L2, L1, 64, seed)
            assert consts.q_totals == expected

    def test_weighted_lp_data_with_monte_carlo_slices(self):
        # Weighted lp slices with p > 1 are the ones still priced by Monte
        # Carlo, one stream per distinct pair.
        rng = np.random.default_rng(3)
        atoms = rng.standard_normal((6, 4))
        dictionary = Dictionary.from_vectors(np.vstack([atoms, atoms[0] + atoms[1]]))
        wl3 = NormSpec.weighted_lp(3.0, [1.0, 2.0, 0.5, 1.5])
        consts = assemble_constants(dictionary, L2, wl3, 3, n_samples=64, seed=5)
        assert consts.q_totals == per_pair_q_totals(consts.family, L2, wl3, 64, 5)
        assert consts.q_totals[2].std_err > 0.0  # some slices were Monte Carlo

    @settings(max_examples=30, deadline=None)
    @given(structured_dictionaries())
    def test_solver_shares_the_family_of_the_constants(self, dictionary):
        solver = L0Solver(dictionary, L2)
        for K in range(dictionary.n_dim + 1):
            consts = assemble_constants(dictionary, L2, L2, K)
            assert solver.family(K) is consts.family
            assert L0Solver(dictionary, L1).family(K) is consts.family


class TestSpanFamilyMemo:
    def test_one_enumeration_per_level_and_dictionary(self, monkeypatch):
        from l0geom import solver as solver_module

        calls = []
        original = solver_module.enumerate_spans

        def counting(dictionary, K):
            calls.append((K, dictionary.span_tol))
            return original(dictionary, K)

        monkeypatch.setattr(solver_module, "enumerate_spans", counting)
        vectors = [[1, 0], [0, 1], [1, 1]]
        dictionary = Dictionary.from_vectors(vectors)
        for _ in range(3):
            L0Solver(dictionary, L2).solve(np.array([0.3, 0.2]), 0.01)
        assert span_family(dictionary, 1) is span_family(dictionary, 1)
        rebuilt = Dictionary.from_vectors(vectors, span_tol=1e-6)
        assert span_family(rebuilt, 1) is not span_family(dictionary, 1)
        assert span_family(rebuilt, 1) is span_family(rebuilt, 1)
        assert sorted(calls) == [(0, 1e-9), (1, 1e-9), (1, 1e-6), (2, 1e-9)]
