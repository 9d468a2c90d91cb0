"""The projection form of the rank rule against the stacked SVDs it replaced.

Closure marks, pair ranks and ``intersection_dim`` decide rank [A | B]
from the principal-angle sines of two orthonormal bases (``_joint_rank``)
instead of ``_rank`` on the singular values of [A | B].  The two agree in
exact arithmetic; these tests check that they agree on dictionaries with
repeated, parallel and summed atoms, and that atoms placed just inside or
just outside span_tol of a span land on the side the rule puts them.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings

from l0geom import Dictionary, enumerate_spans, intersection_dim
from l0geom.subspaces import _closures, _complements, _left_singular, _pair_ranks, _rank
from test_solver import dependent_dictionaries


def full_rank_bases(dictionary, K):
    """Orthonormal bases of the full-rank K-subsets, as ``enumerate_spans`` builds them."""
    subsets = np.array(list(combinations(range(dictionary.n_atoms), K)))
    u, s = _left_singular(np.moveaxis(dictionary.atoms[:, subsets], 1, 0), full_matrices=False)
    return u[_rank(s, dictionary.span_tol) == K]


def svd_rank(first, second, tol):
    """The slow path: ``_rank`` on the singular values of [A | B], stacked."""
    stacked = np.concatenate([first, second], axis=-1)
    return _rank(np.linalg.svd(stacked, compute_uv=False), tol)


def atom_at_residual(basis, normal, tol, delta, rng):
    """A unit vector whose residual off span ``basis`` is tol * (1 + c) * (1 + delta),
    c its cosine to the span, leaving the span along the unit ``normal``."""
    target = tol * (1.0 + delta)
    residual = target
    for _ in range(60):  # r = target * (1 + sqrt(1 - r^2)), a contraction
        residual = target * (1.0 + np.sqrt(1.0 - residual * residual))
    inside = basis @ rng.standard_normal(basis.shape[1])
    inside /= np.linalg.norm(inside)
    return np.sqrt(1.0 - residual * residual) * inside + residual * normal


class TestAgainstStackedSvds:
    @settings(max_examples=150, deadline=None)
    @given(dependent_dictionaries())
    def test_closures_pair_ranks_and_intersections(self, drawn):
        dictionary, _ = drawn
        tol = dictionary.span_tol
        unit = dictionary.atoms / np.linalg.norm(dictionary.atoms, axis=0)
        members = []
        for K in range(1, dictionary.n_dim):
            bases = full_rank_bases(dictionary, K)
            with_atoms = np.concatenate(
                [np.repeat(bases[:, None], dictionary.n_atoms, axis=1),
                 np.broadcast_to(unit.T[None, :, :, None], (len(bases),) + unit.T.shape + (1,))],
                axis=3,
            )
            np.testing.assert_array_equal(
                _closures(bases, unit, tol), _rank(np.linalg.svd(with_atoms, compute_uv=False), tol) == K
            )
        for K in range(1, dictionary.n_dim + 1):
            family = enumerate_spans(dictionary, K)
            members.extend(family.members)
            bases = np.stack([member.matrix for member in family.members])
            pairs = np.array(list(combinations(range(len(bases)), 2)), dtype=np.intp).reshape(-1, 2)
            np.testing.assert_array_equal(
                _pair_ranks(_complements(bases), bases, pairs, tol),
                svd_rank(bases[pairs[:, 0]], bases[pairs[:, 1]], tol),
            )
        every = list(combinations(members, 2))
        for first, second in every[:: max(1, len(every) // 300)]:
            expected = first.dim + second.dim - int(svd_rank(first.matrix, second.matrix, tol))
            assert intersection_dim(first, second, tol) == intersection_dim(second, first, tol)
            assert intersection_dim(first, second, tol) == expected


class TestRoundingBand:
    """Residual span_tol * (1 + c) * (1 -/+ 1e-6) puts an atom inside / outside a span's flat."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3, 0.1])
    @pytest.mark.parametrize("delta, inside", [(-1e-6, True), (1e-6, False)])
    def test_closure_marks_land_on_the_expected_side(self, tol, delta, inside):
        rng = np.random.default_rng(11)
        for n in range(2, 7):
            for K in range(1, n):
                for _ in range(10):
                    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
                    atom = atom_at_residual(q[:, :K], q[:, K], tol, delta, rng)
                    atom /= np.linalg.norm(atom)
                    assert _closures(q[None, :, :K], atom[:, None], tol)[0, 0] == inside
                    assert (svd_rank(q[:, :K], atom[:, None], tol) == K) == inside

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3, 0.1])
    @pytest.mark.parametrize("delta, lines", [(-1e-6, [(0,), (2,)]), (1e-6, [(0,), (1,), (2,)])])
    def test_a_near_copy_joins_or_leaves_the_line(self, tol, delta, lines):
        e1, e2 = np.eye(2)
        atom = atom_at_residual(e1[:, None], e2, tol, delta, np.random.default_rng(3))
        dictionary = Dictionary.from_vectors([e1, atom, e2], span_tol=tol)
        assert [member.provenance for member in enumerate_spans(dictionary, 1).members] == lines


def test_fifteen_hundred_lines_in_the_plane():
    angles = np.pi * np.arange(1500) / 1500
    dictionary = Dictionary.from_vectors(np.column_stack([np.cos(angles), np.sin(angles)]))
    family = enumerate_spans(dictionary, 1)
    assert [member.provenance for member in family.members] == [(i,) for i in range(1500)]
