"""Level-set sampling: containment, distribution against a rejection reference,
counter-based determinism."""

import time

import numpy as np
import pytest
from scipy import stats

from l0geom import NormSpec, norm_eval, sample_levelset, sample_levelset_batch
from l0geom.streams import CHUNK

L1, L2, LINF = NormSpec.l1(), NormSpec.l2(), NormSpec.linf()
WLP = NormSpec.weighted_lp(2.0, [1.0, 3.0])
ALL_KINDS = (L1, L2, LINF, NormSpec.weighted_lp(3.0, [1.0, 2.0, 0.5]))


@pytest.mark.parametrize("spec,dim", [(L2, 3), (L1, 3), (LINF, 2), (WLP, 2)])
def test_samples_stay_inside_the_ball(spec, dim):
    theta = 0.7
    pts = sample_levelset_batch(spec, theta, dim, 5000, seed=1)
    assert pts.shape == (5000, dim)
    assert float(np.max(norm_eval(spec, pts))) <= theta * (1.0 + 1e-12)


def test_l2_radial_law():
    # In dimension 2 a concentric ball of half the radius holds 1/4 of the mass.
    pts = sample_levelset_batch(L2, 1.0, 2, 100_000, seed=2)
    frac = float(np.mean(np.linalg.norm(pts, axis=1) <= 0.5))
    assert frac == pytest.approx(0.25, abs=0.01)


def test_linf_fills_the_cube_uniformly():
    pts = sample_levelset_batch(LINF, 1.0, 2, 50_000, seed=3)
    # Uniform on the square: each quadrant holds ~1/4.
    frac = float(np.mean((pts[:, 0] > 0) & (pts[:, 1] > 0)))
    assert frac == pytest.approx(0.25, abs=0.02)
    # And each coordinate is mean-zero with variance 1/3.
    assert float(pts.var(axis=0).mean()) == pytest.approx(1.0 / 3.0, abs=0.01)


def test_batches_are_reproducible_and_prefix_stable():
    a = sample_levelset_batch(L1, 1.0, 2, 6000, seed=7)
    b = sample_levelset_batch(L1, 1.0, 2, 6000, seed=7)
    np.testing.assert_array_equal(a, b)
    longer = sample_levelset_batch(L1, 1.0, 2, 12_000, seed=7)
    np.testing.assert_array_equal(a, longer[:6000])
    assert not np.array_equal(a, sample_levelset_batch(L1, 1.0, 2, 6000, seed=8))


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda spec: spec.kind)
def test_worker_count_never_changes_samples(spec):
    one = sample_levelset_batch(spec, 2.0, 3, 3 * CHUNK + 17, seed=5, workers=1)
    many = sample_levelset_batch(spec, 2.0, 3, 3 * CHUNK + 17, seed=5, workers=4)
    np.testing.assert_array_equal(one, many)


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda spec: spec.kind)
def test_single_sample_addressing_matches_batches(spec):
    batch = sample_levelset_batch(spec, 1.5, 3, 2 * CHUNK + 10, seed=9)
    for index in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 9):
        np.testing.assert_array_equal(
            sample_levelset(spec, 1.5, 3, index, seed=9), batch[index]
        )


def box_rejection_sample(spec, theta, dim, n_samples, seed):
    """Reference sampler: uniform draws from the ball's bounding box, kept
    when they land inside the ball."""
    rng = np.random.default_rng(seed)
    half = np.full(dim, theta)
    if spec.kind == "wlp":
        half = half / np.asarray(spec.weights)
    kept = []
    while sum(len(block) for block in kept) < n_samples:
        draw = (2.0 * rng.random((CHUNK, dim)) - 1.0) * half
        kept.append(draw[np.asarray(norm_eval(spec, draw)) <= theta])
    return np.vstack(kept)[:n_samples]


@pytest.mark.parametrize(
    "spec",
    [L1, NormSpec.weighted_lp(1.0, [1.0, 2.0, 0.5]), NormSpec.weighted_lp(3.0, [1.0, 2.0, 0.5])],
    ids=["l1", "wlp-p1", "wlp-p3"],
)
def test_exact_sampler_matches_box_rejection(spec):
    # Two-sample KS on every coordinate against the rejection sampler the
    # exact one replaced; both are deterministic, so the verdict is fixed.
    exact = sample_levelset_batch(spec, 0.8, 3, 20_000, seed=21)
    reference = box_rejection_sample(spec, 0.8, 3, 20_000, seed=22)
    for coord in range(3):
        assert stats.ks_2samp(exact[:, coord], reference[:, coord]).pvalue > 1e-3


@pytest.mark.parametrize(
    "spec,dim",
    [
        (L1, 3),
        (L1, 6),
        (L1, 20),
        (NormSpec.weighted_lp(1.0, [0.5, 1.0, 4.0]), 3),
        (NormSpec.weighted_lp(1.5, [1.0] * 6), 6),
        (NormSpec.weighted_lp(3.0, [2.0, 1.0, 1.0, 0.25]), 4),
        (NormSpec.weighted_lp(50.0, [1.0, 3.0, 1.0, 1.0, 0.5]), 5),
    ],
)
def test_radial_law(spec, dim):
    # Uniform on the ball: P(norm <= r theta) = r^dim, so (norm / theta)^dim
    # is uniform on [0, 1].
    theta = 1.7
    pts = sample_levelset_batch(spec, theta, dim, 30_000, seed=dim)
    radii = np.asarray(norm_eval(spec, pts)) / theta
    assert float(radii.max()) <= 1.0 + 1e-12
    assert stats.kstest(radii**dim, "uniform").pvalue > 1e-3


def test_l1_sampling_at_dimension_20_is_fast():
    start = time.perf_counter()
    pts = sample_levelset_batch(L1, 1.0, 20, 100_000, seed=3)
    assert time.perf_counter() - start < 1.0
    assert float(np.max(norm_eval(L1, pts))) <= 1.0 + 1e-12


def test_argument_guards():
    with pytest.raises(ValueError):
        sample_levelset_batch(L2, 0.0, 2, 10, seed=0)
    with pytest.raises(ValueError):
        sample_levelset_batch(L2, 1.0, 0, 10, seed=0)
    with pytest.raises(ValueError):
        sample_levelset_batch(L2, 1.0, 2, 0, seed=0)
    with pytest.raises(ValueError):
        sample_levelset_batch(WLP, 1.0, 3, 10, seed=0)
    with pytest.raises(ValueError):
        sample_levelset(L2, 1.0, 2, -1, seed=0)
