"""Uniform sampling from scaled norm balls.

Every menu norm is sampled exactly, with a fixed number of draws per
point, so no dimension makes sampling slow.  The Euclidean ball takes an
isotropic direction times a U^(1/n) radius and the cube is a plain box
draw.  The l1 ball and the weighted lp balls take the representation of
Barthe, Guedon, Mendelson & Naor (Ann. Probab. 33(2), 2005): with G_i
i.i.d. of density proportional to exp(-|t|^p) and E ~ Exp(1),
G / (sum_i |G_i|^p + E)^(1/p) is uniform on the unit lp ball, and
dividing by the weights maps it onto the weighted ball (l1 is p = 1 with
unit weights).  Draws come from the counter-based streams in ``streams``,
so sample i of a run is a pure function of (seed, i) and can be
regenerated in isolation with ``sample_levelset``.
"""

from __future__ import annotations

import numpy as np

from . import streams
from .norms import NormSpec


def _levelset_chunk(
    spec: NormSpec, theta: float, dim: int, seed: int, chunk_index: int
) -> np.ndarray:
    gen = streams.chunk_generator(
        seed, streams.stream_id(streams.PURPOSE_LEVELSET), chunk_index
    )
    m = streams.CHUNK
    if spec.kind == "l2":
        normals = gen.standard_normal((m, dim))
        lengths = np.linalg.norm(normals, axis=1)
        degenerate = lengths == 0.0
        if np.any(degenerate):
            normals[degenerate, 0] = 1.0
            lengths[degenerate] = 1.0
        radii = theta * gen.random(m) ** (1.0 / dim)
        return normals * (radii / lengths)[:, None]
    if spec.kind == "linf":
        return (2.0 * gen.random((m, dim)) - 1.0) * theta
    p, weights = (1.0, 1.0) if spec.kind == "l1" else (spec.p, np.asarray(spec.weights))
    # |G_i| ~ Gamma(1/p)^(1/p) has the law of Gamma(1 + 1/p)^(1/p) * U_i, and
    # the second form does not underflow at large p; 2U - 1 adds the sign.
    g = gen.standard_gamma(1.0 + 1.0 / p, (m, dim)) ** (1.0 / p) * (
        2.0 * gen.random((m, dim)) - 1.0
    )
    radial = np.sum(np.abs(g) ** p, axis=1) + gen.standard_exponential(m)
    return g * (theta / radial ** (1.0 / p))[:, None] / weights


def _check_args(spec: NormSpec, theta: float, dim: int) -> None:
    spec.check_dimension(dim)
    if not theta > 0.0:
        raise ValueError(f"theta must be > 0, got {theta}")


def sample_levelset_batch(
    spec: NormSpec,
    theta: float,
    dim: int,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> np.ndarray:
    """(n_samples, dim) array of points uniform on the ball norm <= theta."""
    _check_args(spec, theta, dim)
    out = np.empty((n_samples, dim))
    size = streams.CHUNK

    def fill(i: int) -> None:
        rows = out[i * size : (i + 1) * size]
        rows[:] = _levelset_chunk(spec, theta, dim, seed, i)[: len(rows)]

    streams.map_chunks(fill, streams.n_chunks_for(n_samples), workers)
    return out


def sample_levelset(
    spec: NormSpec, theta: float, dim: int, sample_index: int, seed: int
) -> np.ndarray:
    """Regenerate one sample of a batch without producing the others.

    Bitwise identical to row ``sample_index`` of any ``sample_levelset_batch``
    call with the same (spec, theta, dim, seed), regardless of batch size or
    worker count.
    """
    _check_args(spec, theta, dim)
    if sample_index < 0:
        raise ValueError(f"sample_index must be nonnegative, got {sample_index}")
    chunk, row = divmod(sample_index, streams.CHUNK)
    return _levelset_chunk(spec, theta, dim, seed, chunk)[row].copy()
