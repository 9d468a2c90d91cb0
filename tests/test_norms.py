"""Norm menu: evaluation, comparison constants, ball volumes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l0geom import (
    NormSpec,
    ball_volume,
    compute_equiv_constants,
    equivalence_constant,
    euclid_ball_volume,
    norm_eval,
)
from l0geom.norms import _padded, hit_or_miss_volume
from oracles import stacked

L1, L2, LINF = NormSpec.l1(), NormSpec.l2(), NormSpec.linf()


def dirichlet_lp_ball_volume(p: float, n: int) -> float:
    """Independent closed form for the plain lp unit ball volume."""
    return (2.0 * math.gamma(1.0 + 1.0 / p)) ** n / math.gamma(1.0 + n / p)


def wlp_hit_or_miss(spec: NormSpec, seed: int):
    """Monte Carlo volume of a wlp unit ball over its bounding box."""
    return hit_or_miss_volume(
        lambda pts: np.asarray(norm_eval(spec, pts)) <= 1.0,
        1.0 / np.asarray(spec.weights),
        200_000,
        seed,
        stream=2,
    )


class TestNormSpec:
    def test_plain_kinds(self):
        assert L1.kind == "l1" and L1.p is None and L1.weights is None
        assert NormSpec("l2") == L2

    def test_wlp_normalizes_fields(self):
        spec = NormSpec.weighted_lp(2, [1, 2])
        assert spec.p == 2.0
        assert spec.weights == (1.0, 2.0)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(kind="l3"),
            dict(kind="wlp"),
            dict(kind="wlp", p=2.0),
            dict(kind="wlp", weights=(1.0,)),
            dict(kind="wlp", p=0.5, weights=(1.0,)),
            dict(kind="wlp", p=math.inf, weights=(1.0,)),
            dict(kind="wlp", p=2.0, weights=()),
            dict(kind="wlp", p=2.0, weights=(1.0, -1.0)),
            dict(kind="wlp", p=2.0, weights=(1.0, 0.0)),
            dict(kind="l1", p=2.0),
            dict(kind="l2", weights=(1.0,)),
        ],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            NormSpec(**bad)

    def test_json_round_trip(self):
        for spec in (L1, L2, LINF, NormSpec.weighted_lp(1.5, [2.0, 0.5])):
            assert NormSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ValueError):
            NormSpec.from_dict({"kind": "l2", "p": 2.0})
        with pytest.raises(ValueError):
            NormSpec.from_dict({"kind": "wlp", "p": 2.0})
        with pytest.raises(ValueError):
            NormSpec.from_dict({"kind": "l1", "extra": 1})
        with pytest.raises(ValueError):
            NormSpec.from_dict(["l1"])


class TestNormEval:
    def test_frozen_examples(self):
        assert norm_eval(L1, np.array([1.0, -2.0, 3.0])) == 6.0
        assert norm_eval(L2, np.array([3.0, 4.0])) == 5.0
        assert norm_eval(LINF, np.array([1.0, -2.0, 0.5])) == 2.0
        wlp = NormSpec.weighted_lp(2.0, [1.0, 2.0])
        assert norm_eval(wlp, np.array([3.0, 2.0])) == pytest.approx(5.0)

    def test_batch_shapes(self):
        batch = np.array([[3.0, 4.0], [0.0, 1.0]])
        out = norm_eval(L2, batch)
        np.testing.assert_allclose(out, [5.0, 1.0])
        assert norm_eval(L1, batch.reshape(1, 2, 2)).shape == (1, 2)

    def test_wlp_at_large_p_neither_overflows_nor_underflows(self):
        # (w |x|)^p alone overflows to inf at 10^400 and underflows to 0 at 0.1^400.
        wide = NormSpec.weighted_lp(400.0, [1.0, 1.0])
        assert norm_eval(wide, np.array([10.0, 0.0])) == 10.0
        assert norm_eval(wide, np.array([0.1, 0.0])) == 0.1
        assert norm_eval(wide, np.array([np.inf, 1.0])) == np.inf
        small = norm_eval(NormSpec.weighted_lp(120.0, [1.0, 1.0, 1.0]), np.array([1e-3, 5e-4, 0.0]))
        assert small == pytest.approx(1e-3, rel=1e-15)

    def test_wlp_dimension_guard(self):
        with pytest.raises(ValueError):
            norm_eval(NormSpec.weighted_lp(2.0, [1.0, 1.0]), np.zeros(3))

    @pytest.mark.parametrize(
        "spec",
        [L1, L2, LINF, NormSpec.weighted_lp(1.0, [1.0, 2.0, 0.5]),
         NormSpec.weighted_lp(3.0, [0.3, 1.0, 2.0])],
    )
    def test_norm_axioms(self, spec):
        rng = np.random.default_rng(11)
        dim = 3
        for _ in range(200):
            x = rng.standard_normal(dim)
            y = rng.standard_normal(dim)
            c = rng.standard_normal()
            nx, ny = norm_eval(spec, x), norm_eval(spec, y)
            assert nx >= 0.0
            assert norm_eval(spec, x + y) <= nx + ny + 1e-12
            assert norm_eval(spec, c * x) == pytest.approx(abs(c) * nx, rel=1e-12)
            assert norm_eval(spec, -x) == pytest.approx(nx, rel=1e-12)
        assert norm_eval(spec, np.zeros(dim)) == 0.0


class TestEquivalenceConstant:
    def test_exact_table(self):
        assert equivalence_constant(L1, L2, 4) == pytest.approx(2.0)
        assert equivalence_constant(L2, L1, 7) == 1.0
        assert equivalence_constant(L2, LINF, 3) == pytest.approx(math.sqrt(3.0))
        assert equivalence_constant(L1, LINF, 5) == pytest.approx(5.0)
        assert equivalence_constant(LINF, L1, 9) == 1.0
        assert equivalence_constant(LINF, L2, 9) == 1.0
        assert equivalence_constant(L2, L2, 6) == 1.0

    def test_identity_is_one_for_wlp(self):
        spec = NormSpec.weighted_lp(2.0, [0.5, 3.0])
        assert equivalence_constant(spec, spec, 2) == 1.0

    def test_dimension_guards(self):
        with pytest.raises(ValueError):
            equivalence_constant(L1, L2, 0)
        with pytest.raises(ValueError):
            equivalence_constant(NormSpec.weighted_lp(2.0, [1.0]), L2, 2)

    @pytest.mark.parametrize(
        "a,b",
        [
            (L1, L2), (L2, L1), (L1, LINF), (LINF, L1), (L2, LINF), (LINF, L2),
            (NormSpec.weighted_lp(1.5, [0.5, 2.0, 1.0]), L2),
            (L2, NormSpec.weighted_lp(1.5, [0.5, 2.0, 1.0])),
            (NormSpec.weighted_lp(1.0, [2.0, 1.0, 0.25]),
             NormSpec.weighted_lp(4.0, [1.0, 3.0, 0.5])),
        ],
    )
    def test_certification_on_random_directions(self, a, b):
        # The constant must dominate a(x)/b(x) on many random directions.
        rng = np.random.default_rng(29)
        c = equivalence_constant(a, b, 3)
        x = rng.standard_normal((10_000, 3))
        ratios = np.asarray(norm_eval(a, x)) / np.asarray(norm_eval(b, x))
        assert float(ratios.max()) <= c * (1.0 + 1e-12)

    def test_bundle_linf_fidelity_l1_data(self):
        eq = compute_equiv_constants(LINF, L1, 2)
        assert eq.delta1 == pytest.approx(math.sqrt(2.0))  # l1 <= sqrt(2) l2
        assert eq.delta2 == pytest.approx(math.sqrt(2.0))  # l2 <= sqrt(2) linf
        assert eq.delta3 == 1.0                            # l2 <= l1
        assert eq.delta_bar == pytest.approx(2.0)

    def test_bundle_euclidean(self):
        eq = compute_equiv_constants(L2, L2, 5)
        assert (eq.delta1, eq.delta2, eq.delta3, eq.delta_bar) == (1.0, 1.0, 1.0, 1.0)


class TestBallVolumes:
    def test_euclid_closed_forms(self):
        assert euclid_ball_volume(1) == pytest.approx(2.0)
        assert euclid_ball_volume(2) == pytest.approx(math.pi)
        assert euclid_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
        assert euclid_ball_volume(4) == pytest.approx(math.pi**2 / 2.0)
        with pytest.raises(ValueError):
            euclid_ball_volume(0)

    def test_menu_closed_forms(self):
        assert ball_volume(L1, 3).value == pytest.approx(8.0 / 6.0)
        assert ball_volume(LINF, 4).value == pytest.approx(16.0)
        assert ball_volume(L2, 2).value == pytest.approx(math.pi)
        assert ball_volume(L1, 3).std_err == 0.0

    def test_wlp_mc_matches_plain_closed_forms(self):
        # All-ones weights reduce wlp to the plain norms with closed forms;
        # a hit-or-miss estimate over the unit cube agrees within 3 sigma.
        for p, n, plain in ((1.0, 3, L1), (2.0, 2, L2)):
            spec = NormSpec.weighted_lp(p, [1.0] * n)
            exact = ball_volume(spec, n)
            assert exact.std_err == 0.0
            assert exact.value == pytest.approx(ball_volume(plain, n).value, rel=1e-12)
            mc = wlp_hit_or_miss(spec, seed=10)
            assert abs(mc.value - exact.value) <= 3.0 * mc.std_err

    def test_wlp_mc_matches_dirichlet_formula(self):
        # Weight scaling divides the plain lp volume by the weight product.
        for p, weights, seed, expected in (
            (3.0, (1.0, 0.5), 10, 7.066555001141804),
            (1.5, (1.0, 1.0, 1.0), 11, 2.9427657258847146),
            (50.0, (2.0, 1.0, 0.25, 1.0), 12, None),
        ):
            spec = NormSpec.weighted_lp(p, weights)
            exact = ball_volume(spec, len(weights))
            closed = dirichlet_lp_ball_volume(p, len(weights)) / np.prod(weights)
            assert exact.std_err == 0.0
            assert exact.value == pytest.approx(closed, rel=1e-12)
            if expected is not None:
                assert closed == pytest.approx(expected)
            mc = wlp_hit_or_miss(spec, seed)
            assert abs(mc.value - exact.value) <= 3.0 * mc.std_err

    def test_wlp_dimension_guard(self):
        with pytest.raises(ValueError):
            ball_volume(NormSpec.weighted_lp(2.0, [1.0, 1.0]), 3)

    def test_hit_or_miss_determinism(self):
        disk = lambda pts: np.linalg.norm(pts, axis=1) <= 1.0
        a = hit_or_miss_volume(disk, [1.0, 1.0], 50_000, seed=4, stream=9)
        b = hit_or_miss_volume(disk, [1.0, 1.0], 50_000, seed=4, stream=9)
        assert a == b
        assert abs(a.value - math.pi) <= 3.0 * a.std_err

    def test_hit_or_miss_guards(self):
        disk = lambda pts: np.linalg.norm(pts, axis=1) <= 1.0
        with pytest.raises(ValueError):
            hit_or_miss_volume(disk, [], 100, seed=0, stream=0)
        with pytest.raises(ValueError):
            hit_or_miss_volume(disk, [1.0, -1.0], 100, seed=0, stream=0)
        with pytest.raises(ValueError):
            hit_or_miss_volume(disk, [1.0], 0, seed=0, stream=0)


class TestPadded:
    """``_padded`` is the one placement of ragged row groups into a zero-padded
    stack: each owner's rows in order, as the per-group copies, the rank of
    each row within its run of owners, and the walk's slot rule placed them."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=6), st.integers(1, 3), st.booleans())
    def test_matches_the_per_group_placements(self, widths, d, boolean):
        rng = np.random.default_rng(sum(widths) + 7 * d)
        owner = np.repeat(np.arange(len(widths)), widths)
        rows = rng.standard_normal((len(owner), d))
        rows = rows > 0.0 if boolean else rows
        padded = _padded(rows, owner, len(widths))
        assert padded.dtype == rows.dtype
        assert padded.shape == (len(widths), max(widths), d)
        groups = np.split(rows, np.cumsum(widths)[:-1])
        assert padded.tobytes() == stacked(groups).tobytes()
        if len(owner):
            at = np.arange(len(owner)) - np.searchsorted(owner, owner)
            by_rank = np.zeros((len(widths), at.max() + 1, d), dtype=rows.dtype)
            by_rank[owner, at] = rows
            assert padded.tobytes() == by_rank.tobytes()

    def test_owners_without_rows_are_empty_and_no_rows_give_width_zero(self):
        meets = np.array([[True, False], [False, True], [True, True]])
        padded = _padded(meets, np.array([1, 1, 3]), 5)
        assert padded.shape == (5, 2, 2)
        assert not padded[[0, 2, 4]].any()
        assert padded[1].tolist() == [[True, False], [False, True]]
        assert padded[3].tolist() == [[True, True], [False, False]]
        assert _padded(np.zeros((0, 2), dtype=bool), np.zeros(0, dtype=np.intp), 3).shape == (3, 0, 2)
