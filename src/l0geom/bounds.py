"""Volume constants and analytic sandwich bounds for sparsity level sets.

The measure of the set of data vectors solvable with K atoms at tolerance
tau, inside a data-norm ball of radius theta, is squeezed between two
explicit polynomials in tau and theta.  Their shared leading constant C_K
sums over the size-K span family each member's fidelity-ball shadow volume
(on its orthogonal complement) times its data-ball slice volume.  Overlap
constants Q_k, which sum over the pairs of members meeting in dimension k
the slice volume of their intersection, enter the lower bound.

One rule, ``_volumes``, prices every shadow and slice, a stack at a time:
a closed form where the volume depends on its dimension alone (the point,
the Euclidean ball, the whole ball); else, for the polytope balls of l1,
linf and weighted l1, an exact polytope volume, once per distinct subspace
and dictionary, from the solver's ``_sections`` (a slice's points) and
passes of dual vertex tables (an l1 shadow's facets, priced pass by
pass); else, for weighted lp with p > 1, hit-or-miss Monte Carlo, whose
uncertainty propagates into the one-standard-error fields.  Every other
constant has standard error 0.  Pairs whose slice has a closed form are
counted, never listed.  Each constant is one correctly rounded sum of
its terms, so its bits do not depend on the order of the members or pairs.

Every reported quantity is interval arithmetic on the per-level
sandwiches of one rule, ``_sandwich``: level K - 1's interval subtracted
from level K's gives exactly K non-zeros, and N minus the levels'
probabilities the expected number of non-zeros.

All bounds here are rigorous only when theta is large enough relative to
tau; each report carries that validity flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import sizes
from .config import Quantity
from .norms import (
    NormSpec,
    VolumeEstimate,
    _padded,
    ball_volume,
    compute_equiv_constants,
    euclid_ball_volume,
    equivalence_constant,
    hit_or_miss_volume,
    polytope_volumes,
)
# subspace_distance and enumerate_spans are no longer called here but stay
# importable from this module, where perfbench/tracing.py looks them up.
from .solver import (  # noqa: F401
    _dual_tables,
    _sections,
    _weights,
    member_distances,
    span_family,
    subspace_distance,
)
from .streams import PURPOSE_PROJECTED, PURPOSE_SLICE, stream_id
from .subspaces import (  # noqa: F401
    DEFAULT_SPAN_TOL,
    Dictionary,
    SpanFamily,
    SubspaceBasis,
    _complements,
    _indices,
    check_level,
    empty_basis,
    enumerate_pairs,
    enumerate_spans,
    intersection_basis,
    meet_matrices,
    pair_dims,
    spans_equal,
)

DEFAULT_VOLUME_SAMPLES = 200_000

# Exact volumes are priced from a subspace's key, its projector rounded to
# multiples of 2^-46, so two bases of one subspace price it to the same
# bits and a memo of volumes cannot change a result.
_KEY_SCALE = 2.0**46

# Subspaces priced per batch; it bounds the stacked vertex and facet arrays.
_PRICE_BATCH = 1024

# Two-sided 95% normal quantile: a 95% half width is Z95 standard errors.
Z95 = 1.959963984540054


def _alpha(n: int) -> float:
    """Euclidean unit-ball volume with the zero-dimensional convention 1."""
    return 1.0 if n == 0 else euclid_ball_volume(n)


def euclid_ck(K: int, n: int) -> float:
    """Fully Euclidean leading constant: alpha(K) * alpha(n - K) per span.

    For K in {0, n} one factor degenerates to the zero-dimensional
    convention and the constant is alpha(n), the ball volume itself.
    """
    check_level(K, n)
    return _alpha(K) * _alpha(n - K)


def _slice_polytope(data: NormSpec, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points and facet normals of {y : data(U y) <= 1} for a polyhedral data
    norm and each (N, k) orthonormal U of a stack, 0 < k < N.

    The points are the data ball's ``_sections`` by the span of U, in U's
    coordinates, each subspace's in order, then zero rows up to the stack's
    widest.  linf: the facets are the rows +-u_i of U.  l1 and weighted l1:
    they are U^T (w * sigma) for every sign vector sigma in {-1, 1}^N.
    """
    n, k = u.shape[1:]
    sizes.slice_candidates(data.kind, n, k)
    w = _weights(data, n)
    _, y, _, owner = zip(*_sections(data.kind == "linf", w, u))
    points = _padded(np.concatenate(y), np.concatenate(owner), len(u))
    if data.kind == "linf":
        return points, np.hstack([u, -u])
    signs = np.array(list(product((-1.0, 1.0), repeat=n)))
    return points, (signs * w) @ u


def _shadow_polytope(
    fidelity: NormSpec, u: np.ndarray, comp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Points and facet normals of the l1 or weighted-l1 fidelity ball's shadow
    on the complement of span U, 0 < K < N, in the coordinates of an
    orthonormal complement basis C, for each (U, C) of a stack: the hull of
    the +-c_i / w_i over the rows c_i of C, whose facets are the rows of
    U's dual vertex table in complement coordinates, since a point y lies in
    it exactly when max (Z C y) <= 1.  The tables come from the solver's
    passes (``_dual_tables``), and each pass is priced at its widest table
    as soon as it is built, before the next one exists."""
    width = 2 * comp.shape[1]
    w = np.tile(_weights(fidelity, comp.shape[1]), 2)[:, None]
    tables = []
    for table, counts in _dual_tables(fidelity, _complements(u)):
        widest = int(counts.max()) - 1  # facets: the table less its zero row
        sizes.polytope_candidates(f"{width} points by {widest} facet normals", width * widest)
        tables += np.split(table, np.cumsum(counts)[:-1])
    facets = [z[1:] @ c for z, c in zip(tables, comp)]
    owner = np.repeat(np.arange(len(comp)), [len(f) for f in facets])
    return np.hstack([comp, -comp]) / w, _padded(np.concatenate(facets), owner, len(comp))


def _zonotope_volumes(comp: np.ndarray) -> np.ndarray:
    """(N - K)-volume of the cube's shadow on the span of each orthonormal C of
    a stack: the zonotope sum_i [-c_i, c_i] over the rows c_i of C, of volume
    2^m sum_S |det C_S| over the m-row subsets S (Shephard, Canad. J.
    Math. 26, 1974)."""
    n, m = comp.shape[1:]
    sizes.shadow_determinants(n, n - m)
    return 2.0**m * np.abs(np.linalg.det(comp[:, _indices(n, m)])).sum(axis=1)


def _price_exact(
    kind: str, norm: NormSpec, bases: np.ndarray, volumes: dict
) -> list[VolumeEstimate]:
    """Exact volumes of a polyhedral ball's "slice" through, or "shadow" on
    the complement of, the span of each (N, k) orthonormal matrix of a
    stack, 0 < k < N.

    Each is priced from its subspace's key alone, the projector rounded to
    multiples of 2^-46, in the eigenvector basis of that rounded projector,
    and kept in ``volumes`` under (kind, norm, key); the missing keys are
    priced in one batch, which gives each the bits it has alone.
    """
    n, k = bases.shape[1:]
    rounded = np.round(bases @ bases.transpose(0, 2, 1) * _KEY_SCALE) + 0.0
    keys = [(kind, norm, projector.tobytes()) for projector in rounded]
    missing = list(dict.fromkeys(key for key in keys if key not in volumes))
    for lo in range(0, len(missing), _PRICE_BATCH):
        batch = missing[lo : lo + _PRICE_BATCH]
        projectors = np.stack([np.frombuffer(key[2]).reshape(n, n) for key in batch])
        frames = np.linalg.eigh(projectors / _KEY_SCALE)[1]
        u, comp = frames[:, :, n - k :], frames[:, :, : n - k]
        if kind == "slice":
            values = polytope_volumes(*_slice_polytope(norm, u))
        elif norm.kind == "linf":
            values = _zonotope_volumes(comp)
        else:
            values = polytope_volumes(*_shadow_polytope(norm, u, comp))
        volumes.update((key, VolumeEstimate(float(value))) for key, value in zip(batch, values))
    return [volumes[key] for key in keys]


def _closed_volume(norm: NormSpec, n: int, dim: int) -> VolumeEstimate | None:
    """Volume of any dim-dimensional shadow or slice of the norm's unit ball
    in R^n, when it depends on dim alone: the point for dim 0, the
    Euclidean ball for l2, the whole ball for dim = n; otherwise None."""
    if dim == 0:
        return VolumeEstimate(1.0)
    if norm.kind == "l2":
        return VolumeEstimate(euclid_ball_volume(dim))
    if dim == n:
        return ball_volume(norm, n)
    return None


def _volumes(
    kind: str,
    norm: NormSpec,
    bases: np.ndarray,
    n_samples: int,
    seed: int,
    subid: int,
    memo: dict,
) -> list[VolumeEstimate]:
    """Volumes of the norm's unit ball's "slice" through, or "shadow" on the
    orthogonal complement of, the span of each (N, k) orthonormal matrix of
    a stack: the one rule behind every shadow and slice.

    ``_closed_volume`` first; then, for l1, linf and weighted l1, the exact
    polytope volume (``_price_exact``, kept in ``memo``); and for weighted
    lp with p > 1 hit-or-miss Monte Carlo over the box |y_i| <= delta, for
    ||x||_2 <= delta norm(x), in frame coordinates.  A point y lies in the
    body exactly when member_distances(norm, against, y frame^T) <= 1, with
    (frame, against) = (U, {0}) for a slice and (C, U) for a shadow, C an
    orthonormal basis of the complement.  Entry t of the stack draws
    n_samples points from stream subid + t of its kind.
    """
    n, k = bases.shape[1:]
    dim = k if kind == "slice" else n - k
    closed = _closed_volume(norm, n, dim)
    if closed is not None:
        return [closed] * len(bases)
    if norm.polyhedral:
        return _price_exact(kind, norm, bases, memo)
    half_widths = np.full(dim, equivalence_constant(NormSpec.l2(), norm, n))
    purpose = PURPOSE_SLICE if kind == "slice" else PURPOSE_PROJECTED
    estimates = []
    for t, matrix in enumerate(bases):
        basis = SubspaceBasis(matrix)
        frame, against = (basis, empty_basis(n)) if kind == "slice" else (basis.complement(), basis)
        estimates.append(
            hit_or_miss_volume(
                lambda y: member_distances(norm, against, y @ frame.matrix.T) <= 1.0,
                half_widths,
                n_samples,
                seed,
                stream_id(purpose, subid + t),
            )
        )
    return estimates


def projected_ball_volume(
    fidelity: NormSpec,
    basis: SubspaceBasis,
    n_samples: int = DEFAULT_VOLUME_SAMPLES,
    seed: int = 0,
    subid: int = 0,
) -> VolumeEstimate:
    """Volume of the fidelity unit ball's shadow on the orthogonal complement.

    Measured in (N - K) dimensions, where K is the subspace dimension; by
    convention the K = N shadow is the single point 0 with volume 1.  It is
    exact, with standard error 0, for every fidelity but weighted lp with
    p > 1, which ``_volumes`` estimates from stream ``subid``.
    """
    return _volumes("shadow", fidelity, basis.matrix[None], n_samples, seed, subid, {})[0]


def slice_volume(
    data: NormSpec,
    basis: SubspaceBasis,
    n_samples: int = DEFAULT_VOLUME_SAMPLES,
    seed: int = 0,
    subid: int = 0,
) -> VolumeEstimate:
    """K-dimensional volume of the data unit ball's slice through the subspace.

    The K = 0 slice is the single point 0 with volume 1.  It is exact, with
    standard error 0, for every data norm but weighted lp with p > 1, which
    ``_volumes`` estimates from stream ``subid``.
    """
    return _volumes("slice", data, basis.matrix[None], n_samples, seed, subid, {})[0]


def _product(a: VolumeEstimate, b: VolumeEstimate) -> VolumeEstimate:
    err = abs(a.value) * b.std_err + abs(b.value) * a.std_err + a.std_err * b.std_err
    return VolumeEstimate(a.value * b.value, err)


def overlap_constant(
    fidelity: NormSpec,
    data: NormSpec,
    first: SubspaceBasis,
    second: SubspaceBasis,
    n_samples: int = DEFAULT_VOLUME_SAMPLES,
    seed: int = 0,
    span_tol: float = DEFAULT_SPAN_TOL,
    subid: int = 0,
) -> VolumeEstimate:
    """Correction constant for one ordered pair of distinct equal-size spans.

    alpha(N - k) (2 delta2)^(N - k) times the data-ball slice volume of the
    k-dimensional intersection.  Symmetric in its two spans.
    """
    if first.ambient_dim != second.ambient_dim or first.dim != second.dim:
        raise ValueError("overlap constants need two equal-dimension spans")
    if spans_equal(first, second, span_tol):
        raise ValueError("overlap constants are defined for distinct spans only")
    meet = intersection_basis(first, second, span_tol)
    inner = slice_volume(data, meet, n_samples, seed, subid=subid)
    delta2 = compute_equiv_constants(fidelity, data, first.ambient_dim).delta2
    return _overlap(_overlap_factor(delta2, first.ambient_dim, meet.dim), inner)


def _overlap_factor(delta2: float, n: int, k: int) -> float:
    """alpha(N - k) (2 delta2)^(N - k), the overlap constant per unit slice volume."""
    return _alpha(n - k) * (2.0 * delta2) ** (n - k)


def _overlap(factor: float, inner: VolumeEstimate) -> VolumeEstimate:
    return VolumeEstimate(factor * inner.value, factor * inner.std_err)


@dataclass(frozen=True)
class ConstantSet:
    """Everything the sandwich bounds need at one sparsity level K.

    c_total sums the per-member cylinder constants; q_totals[k] sums the
    overlap constants over ordered pairs meeting in dimension k, for k
    from k_min = max(0, 2K - N) to K - 1.  Each sum, and the sum of its
    standard errors, is correctly rounded, whatever the members' order.
    delta_hat widens the sandwich, delta_pair widens the overlap
    corrections, and reports built from this set are valid when
    theta >= delta_gate * tau.  Standard errors are combined conservatively
    (linearly) everywhere.
    """

    K: int
    n_dim: int
    family: SpanFamily
    c_members: tuple[VolumeEstimate, ...]
    c_total: VolumeEstimate
    q_totals: dict[int, VolumeEstimate]
    delta_hat: float
    delta_pair: float
    delta_gate: float
    k_min: int


def gate_factors(
    fidelity: NormSpec, data: NormSpec, n_dim: int, K: int
) -> tuple[float, float, float]:
    """(delta_hat, delta_pair, delta_gate) of the level-K bounds.

    Euclidean fidelity and data norms tighten the width factors to
    delta_hat = 1 and delta_pair = 2; any other norm pair uses delta_bar
    and 3 delta_bar from the comparison constants.  Bounds at level K are
    valid when theta >= delta_gate * tau, the largest factor met on the
    levels 0..K.
    """
    if fidelity.kind == "l2" and data.kind == "l2":
        delta_hat, delta_pair = 1.0, 2.0
    else:
        delta_bar = compute_equiv_constants(fidelity, data, n_dim).delta_bar
        delta_hat, delta_pair = delta_bar, 3.0 * delta_bar
    gate = delta_hat  # level 0
    for j in range(1, K + 1):
        step = delta_hat if j == n_dim else max(delta_hat, delta_pair)
        gate = max(gate, step)
    return delta_hat, delta_pair, gate


def assemble_constants(
    dictionary: Dictionary,
    fidelity: NormSpec,
    data: NormSpec,
    K: int,
    *,
    n_samples: int = DEFAULT_VOLUME_SAMPLES,
    seed: int = 0,
) -> ConstantSet:
    """Compute the full constant set for sparsity level K.

    The family comes from ``span_family``, so it is the one the dictionary's
    solvers use, and its tolerance decides every intersection;
    ``gate_factors`` gives the width factors and the validity gate.
    ``_volumes`` prices the members' shadows and slices with one call each
    (Monte Carlo stream i for member i), and the slices of each k's distinct
    pair intersections, from one stacked SVD, with one more (streams
    numbered by the distinct pairs met so far), all through the
    dictionary's memo of exact volumes.  C_K is the ``math.fsum`` of the
    members' constants.  Q_k sums the overlap constants of the ordered pairs
    meeting in dimension k: the ``math.fsum`` of each unordered pair's
    price, as ``overlap_constant`` gives it, doubled.  Where that slice has
    a closed form (k = 0, or l2 data), the pairs at k are counted from
    ``pair_dims``, never listed, and Q_k is the count times the one price.
    """
    n = dictionary.n_dim
    check_level(K, n)
    sizes.check_run(dictionary, fidelity, data, constants=(K,))
    delta2 = compute_equiv_constants(fidelity, data, n).delta2
    family = span_family(dictionary, K)

    bases, memo = family.bases, dictionary._volumes
    slices = _volumes("slice", data, bases, n_samples, seed, 0, memo)
    shadows = _volumes("shadow", fidelity, bases, n_samples, seed, 0, memo)
    c_members = tuple(map(_product, shadows, slices))
    c_total = VolumeEstimate(
        math.fsum(c.value for c in c_members), math.fsum(c.std_err for c in c_members)
    )

    k_min = max(0, 2 * K - n)
    # Each unordered pair meets from its member of smaller provenance
    # first, so its price does not depend on the members' order.
    rank = np.argsort(np.lexsort(family.provenances.T[::-1])) if K else None
    # Ordered pairs per meet dimension, in 64k-entry blocks, which bincount copies to intp.
    dims = pair_dims(family)
    rows = max(1, (1 << 16) // len(dims))
    blocks = (dims[lo : lo + rows].ravel() for lo in range(0, len(dims), rows))
    counts = sum(np.bincount(block, minlength=K + 1) for block in blocks)
    q_totals: dict[int, VolumeEstimate] = {}
    met = 0  # distinct pairs of the levels below, which number the Monte Carlo streams
    for k in range(k_min, K):
        factor = _overlap_factor(delta2, n, k)
        closed = _closed_volume(data, n, k)
        if closed is not None:
            count = int(counts[k])
            pair = _overlap(factor, closed)
            q_totals[k] = VolumeEstimate(count * pair.value, count * pair.std_err)
            met += count // 2
        else:
            listed = enumerate_pairs(family, k)
            fresh = listed[rank[listed[:, 0]] < rank[listed[:, 1]]]
            priced = []
            if len(fresh):
                meets = meet_matrices(bases[fresh[:, 0]], bases[fresh[:, 1]], k)
                inners = _volumes("slice", data, meets, n_samples, seed, met, memo)
                priced = [_overlap(factor, each) for each in inners]
            # Both orders of an unordered pair take its price, so each counts
            # twice; doubling is exact.
            q_totals[k] = VolumeEstimate(
                math.fsum(2.0 * pair.value for pair in priced),
                math.fsum(2.0 * pair.std_err for pair in priced),
            )
            met += len(fresh)

    delta_hat, delta_pair, delta_gate = gate_factors(fidelity, data, n, K)
    return ConstantSet(
        K=K,
        n_dim=n,
        family=family,
        c_members=c_members,
        c_total=c_total,
        q_totals=q_totals,
        delta_hat=delta_hat,
        delta_pair=delta_pair,
        delta_gate=delta_gate,
        k_min=k_min,
    )


def overlap_budget(
    constants: ConstantSet, tau: float, theta: float
) -> tuple[float, float]:
    """Total overlap correction at (tau, theta), with its standard error.

    Zero by definition at the extreme levels K = 0 and K = N; otherwise
    sum_k Q_k (tau/theta)^(N-k) (1 + delta_pair tau/theta)^k, the
    normalized overspill of pairwise tube intersections.
    """
    if not (tau > 0.0 and theta > 0.0):
        raise ValueError("tau and theta must be positive")
    if constants.K in (0, constants.n_dim):
        return 0.0, 0.0
    r = tau / theta
    total = 0.0
    err = 0.0
    for k, q in constants.q_totals.items():
        factor = r ** (constants.n_dim - k) * (1.0 + constants.delta_pair * r) ** k
        total += q.value * factor
        err += q.std_err * factor
    return total, err


def constants_to_csv(sets: list[ConstantSet] | tuple[ConstantSet, ...]) -> str:
    """Deterministic CSV rendering of constant sets, one row per level K.

    ``ci`` is the 95% half width (1.96 standard errors) on C_K; the
    trailing columns are the matching half widths for the Q columns.  The
    Q columns cover every intersection dimension up to N - 1; levels where
    a dimension cannot occur leave its cells empty.
    """
    if not sets:
        raise ValueError("need at least one constant set")
    n = sets[0].n_dim
    if any(c.n_dim != n for c in sets):
        raise ValueError("constant sets mix ambient dimensions")
    header = ["K", "C_K", "kK"]
    header += [f"Q_{k}" for k in range(n)]
    header += ["deltaHat", "Delta_K", "ci", "deltaPrime"]
    header += [f"Q_{k}_ci" for k in range(n)]
    rows = []
    for c in sorted(sets, key=lambda s: s.K):
        qs = [c.q_totals.get(k) for k in range(n)]
        rows.append((
            c.K, c.c_total.value, c.k_min,
            *(None if q is None else q.value for q in qs),
            c.delta_hat, c.delta_gate, Z95 * c.c_total.std_err,
            c.delta_pair if c.q_totals else None,
            *(None if q is None else Z95 * q.std_err for q in qs),
        ))
    return _csv(",".join(header), rows)


def _cell(value) -> str:
    """One CSV cell: empty for None, true/false, a quantity's name, repr of a float."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Quantity):
        return value.value
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(header: str, rows: Iterable[tuple]) -> str:
    lines = [header] + [",".join(_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BoundReport:
    """Two-sided analytic bound for one quantity at one (tau, theta).

    ``valid`` records whether theta clears the validity gate; when it does
    not, both bounds are None.  ``eps_terms`` itemizes the correction
    terms entering the bounds (already scaled to the quantity's units).
    Lower bounds may be negative and are reported unclamped.
    """

    quantity: Quantity
    K: int | None
    tau: float
    theta: float
    lower: float | None
    upper: float | None
    lower_std_err: float = 0.0
    upper_std_err: float = 0.0
    valid: bool = True
    eps_terms: dict[str, float] = field(default_factory=dict)


def _sandwich(
    constants: ConstantSet, tau: float, theta: float
) -> tuple[float, float, float, float, float, float]:
    """Level K's (floor, ceiling, floor_err, ceiling_err, overlap, overlap_err)
    at (tau, theta): C_K tau^(N - K) (theta -+ delta_hat tau)^K, and the
    ``overlap_budget`` scaled by theta^N, not yet taken from the floor."""
    n, K = constants.n_dim, constants.K
    eps0, eps0_err = overlap_budget(constants, tau, theta)
    c, tail = constants.c_total, tau ** (n - K)
    down, up = theta - constants.delta_hat * tau, theta + constants.delta_hat * tau
    return (
        c.value * tail * down**K, c.value * tail * up**K,
        c.std_err * tail * abs(down) ** K, c.std_err * tail * up**K,
        theta**n * eps0, theta**n * eps0_err,
    )


def report_levels(quantity: Quantity | str, K: int | None, n_dim: int) -> tuple[int, ...]:
    """The levels whose constant sets the bound of one cell reads: (K,) for
    the <= quantities, (K - 1, K) for the == quantities at K >= 1 and (0,)
    at K = 0, and 0 .. N - 1 for expect, which takes K = None."""
    quantity = Quantity(quantity)
    if quantity is Quantity.EXPECT:
        if K is not None:
            raise ValueError(f"expect takes K = None, got {K}")
        return tuple(range(n_dim))
    check_level(K, n_dim)
    if quantity in (Quantity.MEASURE_EQ, Quantity.PROB_EQ) and K >= 1:
        return (K - 1, K)
    return (K,)


def validation_cells(
    quantities: Iterable[Quantity | str], K_list: Iterable[int], tau_grid: Sequence[float]
) -> Iterator[tuple[Quantity, int | None, float]]:
    """Every (quantity, K, tau) cell in report order: quantity, then K, then
    tau.  expect has no level and takes K = None; every other quantity
    takes each K of K_list."""
    K_list = tuple(K_list)
    for q in map(Quantity, quantities):
        for K in (None,) if q is Quantity.EXPECT else K_list:
            for tau in tau_grid:
                yield q, K, tau


def bound_levels(
    quantities: Iterable[Quantity | str], K_list: Iterable[int], n_dim: int
) -> tuple[int, ...]:
    """Sorted union of ``report_levels`` over the cells' (quantity, K) pairs,
    read from ``validation_cells`` at one placeholder tau."""
    cells = validation_cells(quantities, K_list, (None,))
    return tuple(sorted({k for q, K, _ in cells for k in report_levels(q, K, n_dim)}))


def _level(
    levels: Mapping[int, ConstantSet] | Sequence[ConstantSet], k: int
) -> ConstantSet:
    """Level k's constant set, refusing a missing one or one stored under another level."""
    try:
        constants = levels[k]
    except (KeyError, IndexError):
        raise ValueError(f"no constant set for level {k}") from None
    if constants.K != k:
        raise ValueError(f"the constant set for level {k} is level {constants.K}'s")
    return constants


def bound_report(
    quantity: Quantity | str,
    K: int | None,
    tau: float,
    theta: float,
    levels: Mapping[int, ConstantSet] | Sequence[ConstantSet],
    data_ball_vol: VolumeEstimate | None = None,
) -> BoundReport:
    """Analytic sandwich for one quantity at level K (None for expect).

    ``levels[k]`` is level k's constant set, in a dict by level or a tuple
    from level 0; the report reads exactly the levels ``report_levels``
    names, and probabilities and expect also need ``data_ball_vol``.

    Every quantity is interval arithmetic on ``_sandwich``, errors added:
    measure_leq is level K's [floor - overlap, ceiling], measure_eq that
    less level K - 1's; probabilities divide by the data ball's measure,
    and expect is N less the prob_leq of levels 0 .. N - 1, in level order.

    Bounds are None (with valid=False) when theta < delta_gate * tau on
    any level read.
    """
    quantity = Quantity(quantity)
    if not (tau > 0.0 and theta > 0.0):
        raise ValueError("tau and theta must be positive")
    n = _level(levels, 0 if K is None else K).n_dim
    sets = [_level(levels, k) for k in report_levels(quantity, K, n)]
    if quantity not in (Quantity.MEASURE_LEQ, Quantity.MEASURE_EQ) and data_ball_vol is None:
        raise ValueError(f"{quantity.value} bounds need data_ball_vol")

    gate = max(c.delta_gate for c in sets)
    if theta < gate * tau:
        return BoundReport(quantity, K, tau, theta, None, None, valid=False)

    if quantity is Quantity.EXPECT:
        lower = float(n)
        upper = float(n)
        lower_err = 0.0
        upper_err = 0.0
        for k in range(n):
            sub = bound_report(Quantity.PROB_LEQ, k, tau, theta, levels, data_ball_vol)
            upper -= sub.lower
            lower -= sub.upper
            upper_err += sub.lower_std_err
            lower_err += sub.upper_std_err
        return BoundReport(
            quantity, None, tau, theta, lower, upper, lower_err, upper_err, True
        )

    floor, upper, floor_err, upper_err, overlap, overlap_err = _sandwich(sets[-1], tau, theta)
    lower, lower_err = floor - overlap, floor_err + overlap_err
    eps_terms = {"overlap": overlap}

    if len(sets) == 2:
        # The lower bound drops by level K - 1's ceiling, the upper by its
        # floor less its overlap, which may take it below the plain level-K
        # one; it is not clamped.
        floor, ceiling, floor_err, ceiling_err, overlap, overlap_err = _sandwich(
            sets[0], tau, theta
        )
        lower -= ceiling
        upper += overlap - floor
        lower_err += ceiling_err
        upper_err += overlap_err + floor_err
        eps_terms["previous_ceiling"] = ceiling
        eps_terms["previous_floor"] = floor
        eps_terms["previous_overlap"] = overlap

    if quantity in (Quantity.MEASURE_LEQ, Quantity.MEASURE_EQ):
        return BoundReport(
            quantity, K, tau, theta, lower, upper, lower_err, upper_err, True, eps_terms
        )

    denom = data_ball_vol.value * theta**n
    if denom <= 0.0:
        raise ValueError("data ball volume must be positive")
    rel_vol = data_ball_vol.std_err / data_ball_vol.value
    p_lower = lower / denom
    p_upper = upper / denom
    p_lower_err = lower_err / denom + abs(p_lower) * rel_vol
    p_upper_err = upper_err / denom + abs(p_upper) * rel_vol
    eps_terms = {key: value / denom for key, value in eps_terms.items()}
    return BoundReport(
        quantity, K, tau, theta, p_lower, p_upper, p_lower_err, p_upper_err, True, eps_terms
    )
