"""Closure-keyed families, union-ranked pair dimensions, memoised families
and closed-form overlap sums.

Property tests on small dictionaries with repeated, parallel and dependent
atoms check the closure-keyed families against the original projector
dedup, the union-keyed pair pass against the per-row SVD pass it replaced
and against the per-pair rank oracle, the pair arrays against the original
double loop, and every Q_k against the correctly rounded per-pair sum of
``overlap_constant``.
"""

import math
from itertools import combinations
from unittest import mock

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
from l0geom import subspaces
from l0geom.solver import span_family
from l0geom.subspaces import _rank, pair_dims

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


@st.composite
def near_parallel_dictionaries(draw):
    """Gaussian atoms in R^n, 3 <= n <= 4, plus a chain of near-copies:
    atom a_i turned towards a_j, a_j towards a_k, and so on, each by 1e-4
    to 1e-6 radians.  A union holding two links can be conditioned like
    the product of their angles, under span_tol, while some pairs of
    members that span it see one angle only.  The atoms are shuffled, so
    that a copy can come before its original and generate a member's
    span."""
    n = draw(st.integers(3, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal((draw(st.integers(n, n + 2)), n))
    chain = draw(st.permutations(range(len(base))))[: draw(st.integers(2, 4))]
    copies = []
    for i, j in zip(chain, chain[1:]):
        atom, turn = base[i], base[j] - (base[j] @ base[i]) / (base[i] @ base[i]) * base[i]
        angle = 10.0 ** -draw(st.integers(4, 6))
        copies.append(np.cos(angle) * atom + np.sin(angle) * np.linalg.norm(atom) * turn
                      / np.linalg.norm(turn))
    atoms = np.vstack([base, copies])
    return Dictionary.from_vectors(atoms[draw(st.permutations(range(len(atoms))))])


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


def per_row_pair_dims(family):
    """The pair pass that union ranks replaced, kept as the oracle: row i
    stacks member i's basis against every later member's, [U_i | U_j], and
    ranks each stack by the ``_rank`` rule at the family's span_tol."""
    size, k = len(family.members), family.K
    dims = np.full((size, size), k, dtype=np.int16)
    if k > 0 and size > 1:
        bases = np.stack([member.matrix for member in family.members])
        for i in range(size - 1):
            later = bases[i + 1 :]
            stacked = np.concatenate([np.broadcast_to(bases[i], later.shape), later], axis=2)
            rank = _rank(np.linalg.svd(stacked, compute_uv=False), family.span_tol)
            dims[i, i + 1 :] = dims[i + 1 :, i] = 2 * k - rank
    return dims


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
    """Q_k as the correctly rounded ordered-pair sum of overlap_constant,
    each unordered pair priced once."""
    n, K = family.ambient_dim, family.K
    priced = {}
    totals = {}
    for k in range(max(0, 2 * K - n), K):
        terms = []
        for i, j in enumerate_pairs(family, k):
            key = (min(i, j), max(i, j))
            if key not in priced:
                priced[key] = overlap_constant(
                    fidelity, data, family.members[key[0]], family.members[key[1]],
                    n_samples, seed, subid=len(priced),
                )
            terms.append(priced[key])
        totals[k] = VolumeEstimate(
            math.fsum(t.value for t in terms), math.fsum(t.std_err for t in terms)
        )
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

    @settings(max_examples=200, deadline=None)
    @given(structured_dictionaries())
    def test_union_ranks_match_the_per_row_oracle(self, dictionary):
        for K in range(dictionary.n_dim + 1):
            family = enumerate_spans(dictionary, K)
            np.testing.assert_array_equal(pair_dims(family), per_row_pair_dims(family))

    def test_unions_of_more_than_64_atoms(self):
        # Sixty copies of e1 ahead of six directions put provenance indices
        # above 63, so a union's bitmask takes two words.
        rng = np.random.default_rng(11)
        atoms = np.vstack([np.outer(rng.uniform(0.5, 2.0, 60), [1.0, 0.0, 0.0]),
                           rng.standard_normal((6, 3))])
        dictionary = Dictionary.from_vectors(atoms)
        for K in (1, 2):
            family = enumerate_spans(dictionary, K)
            assert max(max(m.provenance) for m in family.members) >= 64
            np.testing.assert_array_equal(pair_dims(family), per_row_pair_dims(family))

    def test_row_blocks_give_the_whole_matrix(self):
        rng = np.random.default_rng(4)
        dictionary = Dictionary.from_vectors(rng.standard_normal((9, 4)))
        family = enumerate_spans(dictionary, 2)
        with mock.patch.object(subspaces, "_PAIR_BLOCK", 7):
            dims = pair_dims(enumerate_spans(dictionary, 2))
        np.testing.assert_array_equal(dims, per_row_pair_dims(family))
        np.testing.assert_array_equal(dims, pair_dims(family))

    @settings(max_examples=120, deadline=None)
    @given(structured_dictionaries())
    def test_enumerate_pairs_matches_the_double_loop(self, dictionary):
        for K in range(dictionary.n_dim + 1):
            family = enumerate_spans(dictionary, K)
            for k in range(K + 1):
                pairs = enumerate_pairs(family, k)
                assert pairs.shape[1:] == (2,) and pairs.dtype.kind == "i"
                expected = np.array(double_loop_pairs(family, k), dtype=int).reshape(-1, 2)
                np.testing.assert_array_equal(pairs, expected)

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


class TestIllConditionedAtoms:
    """Atoms 1e-5 radians apart, 10^4 times span_tol: a union of them is
    badly conditioned as a matrix, yet each union is ranked by the bases of
    a pair that spans it, as the oracle ranks every pair."""

    c, s = np.cos(1e-5), np.sin(1e-5)

    def test_planes_that_meet_only_in_zero(self):
        c, s = self.c, self.s
        atoms = [[1, 0, 0, 0], [c, s, 0, 0], [0, 0, 1, 0], [0, c, 0, s], [0, 1, 0, 0], [0, 0, 0, 1]]
        family = enumerate_spans(Dictionary.from_vectors(atoms), 2)
        index = {member.provenance: i for i, member in enumerate(family.members)}
        dims, oracle = pair_dims(family), per_row_pair_dims(family)
        first, second = index[(0, 1)], index[(2, 3)]
        assert dims[first, second] == oracle[first, second] == 0
        # (0, 3) and (1, 2) span the same union {0, 1, 2, 3} and take the
        # rank of (0, 1) and (2, 3), its first pair; their own [U | U] has a
        # smallest singular value of 7.1e-11, under span_tol, so the oracle
        # alone gives them dimension 1.  This is the one difference.
        third, fourth = index[(0, 3)], index[(1, 2)]
        assert dims[third, fourth] == 0 and oracle[third, fourth] == 1
        assert sorted(map(tuple, np.argwhere(dims != oracle).tolist())) == [
            (third, fourth), (fourth, third)
        ]

    @settings(max_examples=150, deadline=None)
    @given(near_parallel_dictionaries())
    def test_each_union_takes_the_oracle_rank_of_its_first_pair(self, dictionary):
        for K in range(1, dictionary.n_dim):
            family = enumerate_spans(dictionary, K)
            oracle = per_row_pair_dims(family)
            atoms = [set(member.provenance) for member in family.members]
            first = {}
            for i, j in combinations(range(len(atoms)), 2):
                first.setdefault(frozenset(atoms[i] | atoms[j]), (i, j))
            try:
                dims = pair_dims(family)
            except ValueError as error:
                named = [pair for pair in first.values() if oracle[pair] == K]
                assert named and str(error).startswith(
                    f"members {family.members[named[0][0]].provenance} and "
                    f"{family.members[named[0][1]].provenance} have one span"
                )
                continue
            for i, j in combinations(range(len(atoms)), 2):
                assert dims[i, j] == dims[j, i] == oracle[first[frozenset(atoms[i] | atoms[j])]]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 3),
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from([0.6, 1.5, 4.0]), min_size=1, max_size=4),
    )
    def test_lines_take_the_oracle_rank_of_every_pair(self, n, seed, steps):
        # At K = 1 every pair is its own union, ranked directly.  A chain of
        # near-copies turned by 0.6 to 4 times span_tol per step makes
        # neighbours share a span that atoms two steps apart do not.
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((n + 1, n))
        turn = base[1] - (base[1] @ base[0]) / (base[0] @ base[0]) * base[0]
        turn *= np.linalg.norm(base[0]) / np.linalg.norm(turn)
        angles = 1e-6 * np.cumsum(steps)
        chain = np.cos(angles)[:, None] * base[0] + np.sin(angles)[:, None] * turn
        atoms = np.vstack([base, chain])[rng.permutation(len(base) + len(chain))]
        family = enumerate_spans(Dictionary.from_vectors(atoms, span_tol=1e-6), 1)
        oracle = per_row_pair_dims(family)
        try:
            dims = pair_dims(family)
        except ValueError as error:
            i, j = next((i, j) for i, j in combinations(range(len(family)), 2) if oracle[i, j] == 1)
            assert str(error).startswith(
                f"members {family.members[i].provenance} and "
                f"{family.members[j].provenance} have one span"
            )
            return
        np.testing.assert_array_equal(dims, oracle)

    def test_planes_that_meet_in_a_line(self):
        c, s = self.c, self.s
        family = enumerate_spans(
            Dictionary.from_vectors([[1, 0, 0], [c, s, 0], [0, c, s], [0, 0, 1]]), 2
        )
        index = {member.provenance: i for i, member in enumerate(family.members)}
        dims = pair_dims(family)
        np.testing.assert_array_equal(dims, per_row_pair_dims(family))
        assert dims[index[(0, 1)], index[(0, 2)]] == 1


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
        # A solve prices level 0 by the norm itself, so it enumerates no level-0 family.
        assert sorted(calls) == [(1, 1e-9), (1, 1e-6), (2, 1e-9)]
