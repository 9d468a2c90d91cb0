"""Reference quantities the tests check the package against.

None of these is on a path the package runs: each restates a definition
from the paper in its plainest form, for the tests to compare with.
"""

import math
from itertools import product

import numpy as np

from l0geom import LevelSetExperiment, MCEstimate, NormSpec, Quantity, SubspaceBasis, VolumeEstimate
from l0geom import simplex
from l0geom.bounds import DEFAULT_VOLUME_SAMPLES, _product, projected_ball_volume, slice_volume
from l0geom.norms import EquivConstants
from l0geom.solver import _VERTEX_SLACK, member_distances, null_directions, threshold
from l0geom.subspaces import _indices, _left_singular


def _alpha(n: int) -> float:
    """Euclidean unit-ball volume in R^n, 1 for n = 0."""
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def cylinder_constant(
    fidelity: NormSpec,
    data: NormSpec,
    basis: SubspaceBasis,
    n_samples: int = DEFAULT_VOLUME_SAMPLES,
    seed: int = 0,
    subid: int = 0,
) -> VolumeEstimate:
    """Leading constant of one subspace: shadow volume times slice volume."""
    shadow = projected_ball_volume(fidelity, basis, n_samples, seed, subid)
    return _product(shadow, slice_volume(data, basis, n_samples, seed, subid))


def overlap_cap(n_dim: int, k: int, family_size: int, equiv: EquivConstants) -> float:
    """Certified upper bound on the summed overlap constants at level k.

    family_size * (family_size - 1) ordered pairs, each at most
    alpha(N - k) (2 delta2)^(N - k) alpha(k) delta3^k.
    """
    if not 0 <= k <= n_dim:
        raise ValueError(f"k must lie in [0, {n_dim}], got {k}")
    if family_size < 0:
        raise ValueError(f"family_size must be nonnegative, got {family_size}")
    pairs = family_size * (family_size - 1)
    return (
        pairs
        * _alpha(n_dim - k)
        * (2.0 * equiv.delta2) ** (n_dim - k)
        * _alpha(k)
        * equiv.delta3**k
    )


def tube_overlap_measure(
    experiment: LevelSetExperiment, first: SubspaceBasis, second: SubspaceBasis, tau: float
) -> MCEstimate:
    """Measure of the set within tau of both spans, inside the experiment's data ball."""
    thresh = threshold(tau)
    near = [
        member_distances(experiment.fidelity, span, experiment.points) <= thresh
        for span in (first, second)
    ]
    hits = int(np.count_nonzero(near[0] & near[1]))
    return experiment._frequency(Quantity.MEASURE_LEQ, None, tau, hits)


def dual_vertices(fidelity: NormSpec, basis: SubspaceBasis) -> np.ndarray:
    """One span's dual vertex table, built alone: the complement, the
    candidates of one member, and ``np.unique`` on the rows rounded to 12
    decimals, keeping first occurrences in candidate order after a zero row.

    linf: the null direction of each m - 1 rows of the complement C
    (m = N - K), scaled to l1 norm 1, with both signs.  l1 and weighted l1:
    the solutions of C_A c = sigma * w_A by the pseudo-inverse of each
    active block A, kept within a relative 1e-6 of the box and scaled onto it.
    """
    n, m = basis.ambient_dim, basis.ambient_dim - basis.dim
    if m == 0:
        return np.zeros((1, n))
    comp = _left_singular(basis.matrix, full_matrices=True)[0][:, basis.dim :]
    if fidelity.kind == "linf":
        z = null_directions(comp) @ comp.T
        z /= np.sum(np.abs(z), axis=1, keepdims=True)
        z = np.vstack([z, -z])
    else:
        w = np.ones(n) if fidelity.kind == "l1" else np.asarray(fidelity.weights, dtype=float)
        active = _indices(n, m)
        signs = np.array(list(product((-1.0, 1.0), repeat=m)))
        rhs = signs[None, :, :] * w[active][:, None, :]
        coeffs = np.einsum("aij,asj->asi", np.linalg.pinv(comp[active]), rhs).reshape(-1, m)
        z = coeffs @ comp.T
        scale = np.max(np.abs(z) / w, axis=1)
        keep = (scale > 0.0) & (scale <= 1.0 + _VERTEX_SLACK)
        z = z[keep] / scale[keep, None]
    _, first = np.unique(np.round(z, 12), axis=0, return_index=True)
    return np.vstack([np.zeros((1, n)), z[np.sort(first)]])


def stacked(rows: list[np.ndarray]) -> np.ndarray:
    """Equal-width 2-d arrays stacked into one 3-d array, zero rows padding
    the shorter, one at a time."""
    stack = np.zeros((len(rows), max(len(r) for r in rows), rows[0].shape[1]), dtype=rows[0].dtype)
    for i, r in enumerate(rows):
        stack[i, : len(r)] = r
    return stack


def l1_projection(
    basis_matrix: np.ndarray, d: np.ndarray, tol: float = 1e-9
) -> tuple[np.ndarray, float]:
    """Coefficients y minimizing ||d - B y||_1 and the attained distance."""
    bm = np.asarray(basis_matrix, dtype=float)
    d = np.asarray(d, dtype=float)
    n, k = bm.shape
    if k == 0:
        return np.zeros(0), float(np.sum(np.abs(d)))
    # Variables: y+ (k), y- (k), residual+ (n), residual- (n).
    a = np.hstack([bm, -bm, np.eye(n), -np.eye(n)])
    c = np.concatenate([np.zeros(2 * k), np.ones(2 * n)])
    x, value = simplex.solve_standard_form(c, a, d, tol=tol)
    return x[:k] - x[k : 2 * k], value


def linf_projection(
    basis_matrix: np.ndarray, d: np.ndarray, tol: float = 1e-9
) -> tuple[np.ndarray, float]:
    """Coefficients y minimizing ||d - B y||_inf and the attained distance."""
    bm = np.asarray(basis_matrix, dtype=float)
    d = np.asarray(d, dtype=float)
    n, k = bm.shape
    if k == 0:
        return np.zeros(0), float(np.max(np.abs(d)))
    # Variables: y+ (k), y- (k), t (1), slack u (n), slack v (n), with
    # B y + t - u = d and B y - t + v = d forcing t = ||d - B y||_inf.
    a = np.zeros((2 * n, 2 * k + 1 + 2 * n))
    a[:n, :k] = bm
    a[:n, k : 2 * k] = -bm
    a[:n, 2 * k] = 1.0
    a[:n, 2 * k + 1 : 2 * k + 1 + n] = -np.eye(n)
    a[n:, :k] = bm
    a[n:, k : 2 * k] = -bm
    a[n:, 2 * k] = -1.0
    a[n:, 2 * k + 1 + n :] = np.eye(n)
    c = np.zeros(2 * k + 1 + 2 * n)
    c[2 * k] = 1.0
    b = np.concatenate([d, d])
    x, value = simplex.solve_standard_form(c, a, b, tol=tol)
    return x[:k] - x[k : 2 * k], value
