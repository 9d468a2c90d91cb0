"""Exact smallest-support approximation by exhaustive span search.

For data d, tolerance tau, and fidelity norm f, the solver finds the
smallest number of dictionary atoms whose combination lands within tau of
d, searching support sizes upward.  Feasibility at size k only depends on
the span of the chosen atoms, so the search runs over the distinct spans
of size-k subsets instead of the subsets themselves; rank-deficient
subsets never help and are skipped.  The attained value never exceeds the
ambient dimension N, because the dictionary spans R^N.  Tau is the one
tolerance a caller sets: "within tau" means at most ``threshold(tau)``,
tau with the relative slack ``FEAS_TOL``, in every solve, profile and
tube, and the Newton fit below stops at the constant ``DIST_TOL``.

Distances to a span V come in one form per norm family.  Euclidean
distances are orthogonal projections.  Polyhedral fidelities (l1, linf,
and weighted l1) use LP duality: dist_f(x, V) = max <z, x> over z in
V-perp with dual norm at most 1, and the maximum is attained at one of
finitely many vertices that depend on V alone: the dual ball's section
by V-perp.  ``_sections`` lists the sections of a box or cross-polytope
by a stack of subspaces, one pass of frames at a time, for these tables
and the data-ball slices of ``bounds`` alike; ``_dual_tables`` yields
each pass's tables, deduplicated, for the level stack, the l1 shadows
of ``bounds`` and ``dual_vertices`` (a stack of one), so a level holds
its tables and one pass of candidates.  Each span's table has the bits
it has alone, and every distance is a row maximum of one matrix product.
Weighted lp with p > 1 has no finite table: its distances come from one
damped Newton fit over the basis coefficients, run for every (row,
member) pair at once and stopped by ``DIST_TOL``.

``L0Solver`` holds one stacked table over the members of levels 1..L of
the span families, in (level, provenance) order, for the fidelity's norm
family, built from each family's arrays: its bases (l2, weighted lp) and
its complements, shared with the pair pass (polyhedral tables, the dual
Newton fit).  Level 0 is the norm itself and level N, the whole space,
holds every vector.  For l2 fidelity the table is one row per member, the upper
triangle of I - P, so a sample's squared distances are products with its
pair products x_i x_j; a member's own basis U gives the residual form
||d - U U^T d||, as accurate as one projection.  For polyhedral
fidelities it is the members' dual vertex tables side by side, with
member and level offsets.  So a profile block prices each l2 level, or
every polyhedral level, with one product, and a solve finds its first
member within tau, by level and then provenance, pricing consecutive
built levels with one product while their cells stay within
``_SCAN_CELLS``, stopping at the first such group that holds one.  An l2
scan's product is the gram one, and it only screens: a member whose
squared gram distance lies within a proven rounding width
(``_SCREEN_ULPS``) of tau^2 is re-priced alone in residual form, so the
scan names the member that pricing every member alone in residual form
names, at a fraction of its cost.  Weighted lp with p > 1 keeps one
Newton fit per level behind the same interface.  The stack grows by one
level only when a solve finds no built member within tau, in the calling
thread.  ``member_distances`` is the table of a single member.

A scan only names its winner, and one closest-point rule per norm family
gives the winner's coefficients over its atoms, from that member alone:
the atoms' pseudo-inverse applied to d for l2; for weighted lp with p > 1
the same pseudo-inverse applied to the Newton fit's closest point; and for
polyhedral fidelities the dual vertex of the member's own table that
attains the distance.  By complementary slackness every closest residual
r then has <z, r> = ||r||, which pins r_i = dist * sign(z_i) where
z_i != 0 for linf, and r_i = 0 where |z_i| < w_i for l1 and weighted l1.
The closest points form a bounded polytope, so when those rows leave
freedom, holding more rows at a bound reaches one of its vertices
(``_Certificate``).  No linear program runs.  Each rule's factors depend
on the member, and on the attaining vertex, but not on d, so the stack
builds them the first time a solve needs them and keeps them: at most one
entry per member (l2, weighted lp with p > 1) or per dual vertex column
(polyhedral).  Concurrent solves may build one entry twice, and
``dict.setdefault`` keeps the first; both give the same bits.  A solve at
level 0 has the empty support, and one at level N interpolates d on the
first full-rank subset, whatever the norm; the solver keeps that subset
and its atoms once a solve has needed them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from typing import Iterator

import numpy as np

from . import sizes
from .norms import NormSpec, norm_eval, scaled_magnitudes
from .streams import map_chunks
from .subspaces import (
    DEFAULT_SPAN_TOL, Dictionary, SpanFamily, SubspaceBasis, _complements, _first_rows, _indices,
    check_level, enumerate_spans,
)

# Relative slack on tau in every feasibility test (``threshold``): a
# distance priced above tau by rounding alone still counts as within it.
FEAS_TOL = 1e-10
# Stopping tolerance of the weighted-lp Newton fit (p > 1): a (row, member)
# pair stops once a step gains at most 1e-3 * DIST_TOL in the distance.
DIST_TOL = 1e-9

# Newton steps of one weighted-lp fit before ConvergenceError, and step
# halvings of one Armijo backtracking search.
_MAX_NEWTON_STEPS = 100
_MAX_HALVINGS = 60

# Curvature weights t^(p - 2) grow without bound at t = 0 when p < 2 (the
# dual fit's correction step), so they are taken at max(t, _CURVATURE_FLOOR);
# a floor of 1e-12 left that step ill-conditioned, 4.7e-10 off in distance at
# p = 1.02.  Each K x K Newton system gets a ridge of _RIDGE times its trace.
_CURVATURE_FLOOR = 1e-8
_RIDGE = 1e-12

# Box-vertex candidates whose dual norm exceeds 1 by more than this are
# dropped as infeasible; the rest are scaled onto the dual unit sphere.
_VERTEX_SLACK = 1e-6

# Candidate cells (rows times N) that one pass of ``_sections`` holds at
# once, 2 MB: a stack whose frames need more is built in several passes.
_PASS_CELLS = 1 << 18

# A dual vertex entry within this relative slack of zero (linf) or of its
# bound w_i (l1 and weighted l1) counts as on it when complementary
# slackness picks the rows that pin a closest point.  In the solves for that
# point, singular values below _PIN_RANK_RTOL times the Frobenius norm of the
# whole atom matrix count as zero, so rows of rounding noise pin nothing.
_ACTIVE_SLACK = 1e-9
_PIN_RANK_RTOL = 1e-10

# A candidate closest point c is kept when ||d - A c|| <= dist plus
# _FIT_ULPS * eps * ||(|d| + |A| |c|)||, a bound on the rounding of the
# residual and of the certificate's dist alike.  Over 1,500 derandomised
# examples of each dual-certificate test (28k closest points), the first
# attaining candidate exceeded dist by at most 44 such units, and every
# rejected candidate by at least 3e11, so 4096 sits well inside that gap.
_FIT_ULPS = 4096.0
_FIT_SLACK = _FIT_ULPS * np.finfo(float).eps

# Rows per distance_profiles block: as many as fit _PROFILE_CELLS cells of
# the stack's width (0.5 MB per worker), and at least _PROFILE_ROWS for the
# l2 stack, whose width is at most N (N + 1) / 2 plus sizes.MAX_SPAN_SUBSETS.  In
# process (2 CPUs, OpenBLAS on 1 thread, ms at 1 / 2 workers), family5's
# profiles took 35 / 66 at 64 rows and 21 / 16 at this budget's 500, and
# Gaussian N = 7, m = 14's 362 / 183 at 64 and 278-319 / 134-154 at 256.
# Twice the budget ran no faster and added 2.5 MB to family5's peak RSS.
_PROFILE_CELLS = 1 << 16
_PROFILE_ROWS = 256

# Largest number of table cells one single-vector scan of a solve reads in
# one product.  A scan costs about 6.5 us per product, for the l2 screen
# and the polyhedral table alike, plus 0.14 ns per gram cell (N (N + 1) / 2
# per l2 member) or 0.33 ns per vertex cell (N = 7, m = 14, one core), so a
# group of levels within this budget costs at most about 1.4 times one
# product.
_SCAN_CELLS = 1 << 13

# Width of the l2 scan's screen, in eps * N^3 * ||d||^2.  With u = eps / 2,
# a member of dimension K <= N - 1 with stored basis U, P = U U^T and
# defect delta = max |U^T U - I| (Higham, Accuracy and Stability of
# Numerical Algorithms, sec. 3.1, for every dot product below, in any order):
# * The gram form targets d^T (I - P) d and the residual form
#   ||(I - P) d||^2, which exceeds it by d^T U (U^T U - I) U^T d, at most
#   K delta (1 + K delta) ||d||^2: the defect term of ``slack``.
# * Each gram entry, weight 1 or 2 and at most its weight in size, is off by
#   (K + 2) u times its weight, and the sum of weight |d_i d_j| over i <= j
#   is ||d||_1^2 <= N ||d||^2; the product over N (N + 1) / 2 pairs adds
#   N (N (N + 1) / 2 + 1) u ||d||^2.
# * In residual form the coordinates, the point and the residual are off
#   by at most u ||d|| (K N + sqrt(K) (N - 1) + 1) in norm, and the sum of
#   squares adds N u ||d||^2.
# Together the two forms differ by at most (N^3 / 2 + 3.5 N^2 + 2 N^1.5 +
# 3 N + 2) u ||d||^2 <= 8 N^3 eps ||d||^2 beyond the defect term.  Squaring
# thresh, placing the band's edges and the residual's square root round by
# a few eps of max(thresh^2, ||d||^2); where thresh^2 is the larger by
# more, every member is far inside thresh.  16 covers both, and the N u
# rounding of the measured defect, with room.
_SCREEN_ULPS = 16.0


class ConvergenceError(RuntimeError):
    """Raised when an iterative distance computation hits its iteration cap."""


def null_directions(c: np.ndarray) -> np.ndarray:
    """(C(N, m - 1), m) unit vectors x, one per m - 1 rows of the (N, m) matrix c,
    with those rows of c x zero: the null space of the rows when they are
    independent, some vector in it otherwise.  A stack of matrices gives a
    stack of such tables."""
    n, m = c.shape[-2:]
    return np.linalg.svd(c[..., _indices(n, m - 1), :])[2][..., -1, :]


def box_vertices(c: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundary points c x of the box |(c x)_i| <= w_i for an (N, m) matrix c,
    or for each matrix of a stack, as (x rows, c x rows, kept).

    Each of the C(N, m) 2^m candidates solves c_A x = sigma * w_A for m
    active rows A and signs sigma, from one pseudo-inverse of every active
    block of every matrix.  Candidates outside the box by more than a
    relative 1e-6 are dropped, their rows zero and ``kept`` false, and the
    rest are scaled onto its boundary.  Among them is every vertex of the
    polytope {x : |(c x)_i| <= w_i}.
    """
    n, m = c.shape[-2:]
    active = _indices(n, m)
    signs = np.array(list(product((-1.0, 1.0), repeat=m)))
    rhs = signs[None, :, :] * w[active][:, None, :]
    coeffs = np.einsum("...aij,asj->...asi", np.linalg.pinv(c[..., active, :]), rhs)
    coeffs = coeffs.reshape(*c.shape[:-2], -1, m)
    z = coeffs @ c.swapaxes(-1, -2)
    scale = np.max(np.abs(z) / w, axis=-1)
    keep = (scale > 0.0) & (scale <= 1.0 + _VERTEX_SLACK)
    scale = np.where(keep, scale, 1.0)[..., None]
    kept = keep[..., None]
    return np.where(kept, coeffs / scale, 0.0), np.where(kept, z / scale, 0.0), keep


def _weights(norm: NormSpec, n: int) -> np.ndarray:
    """The weights w_i of a norm on R^n: its own for weighted lp, else ones."""
    if norm.kind != "wlp":
        return np.ones(n)
    norm.check_dimension(n)
    return np.asarray(norm.weights, dtype=float)


def _sections(box: bool, w: np.ndarray, frames: np.ndarray) -> Iterator[tuple]:
    """Boundary points of the box |x_i| <= w_i (its ``box_vertices``, the
    dropped ones left out) or of the cross-polytope sum w_i |x_i| <= 1 (a
    vertex vanishes on k - 1 coordinates, so it spans their
    ``null_directions``; scaled onto the boundary, with both signs) cut by
    the span of each (N, k) orthonormal frame C of a stack, in passes of
    whole frames: each pass yields the range of its frames, coordinates y,
    points x = C y and each row's frame, frame after frame.  Every vertex
    is among them.  A pass holds at most ``_PASS_CELLS`` candidate cells
    (one frame where that alone holds more), and every step acts on one
    frame's own numbers, so each frame's rows have its own bits.
    """
    n, k = frames.shape[1:]
    step = max(1, _PASS_CELLS // (sizes.section_points(box, n, k) * n))
    for lo in range(0, len(frames), step):
        c = frames[lo : lo + step]
        if box:
            y, x, keep = box_vertices(c, w)
            owner, y, x = keep.nonzero()[0], y[keep], x[keep]
        else:
            y = null_directions(c)
            x = y @ c.swapaxes(-1, -2)
            scale = np.sum(w * np.abs(x), axis=-1, keepdims=True)
            y, x = y / scale, x / scale
            y, x = np.concatenate([y, -y], axis=1), np.concatenate([x, -x], axis=1)
            owner = np.repeat(np.arange(len(c)), y.shape[1])
        yield range(lo, lo + len(c)), y.reshape(-1, k), x.reshape(-1, n), lo + owner


def _dual_tables(fidelity: NormSpec, complements: np.ndarray) -> Iterator[tuple]:
    """The dual vertex tables of the spans V whose orthonormal complements
    form an (M, N, N - K) stack, one pass of members at a time: their (V, N)
    rows, member after member, and each member's row count.

    By LP duality dist_f(x, V) = max <z, x> over z in V-perp with dual norm
    at most 1, attained at a vertex of the dual ball's ``_sections`` by the
    complements: the cross-polytope for linf fidelity, the box |z_i| <= w_i
    for l1 and weighted l1.  Each row is feasible, so the row maximum is the
    LP value up to rounding.  A member's table is the zero row, which keeps
    it nonempty when V is R^N, then the first of its rows that agree to 12
    decimals, in candidate order (``_first_rows``), so each table has the
    bits it has alone, and each pass is yielded before the next one exists.
    """
    if not fidelity.polyhedral:
        raise ValueError(f"dual vertices need a polyhedral fidelity norm, got {fidelity}")
    count, n, c = complements.shape
    if c == 0:
        yield np.zeros((count, n)), np.ones(count, dtype=np.intp)
        return
    box = fidelity.kind != "linf"
    if box:
        sizes.dual_candidates(fidelity.kind, n, n - c)
    for members, _, z, owner in _sections(box, _weights(fidelity, n), complements):
        first = _first_rows(np.column_stack([owner, np.round(z, 12)]))
        owner = owner[first] - members.start
        table = np.zeros((len(first) + len(members), n))
        # Member p's rows follow its own zero row and the p tables before it.
        table[np.arange(len(first)) + owner + 1] = z[first]
        yield table, np.bincount(owner, minlength=len(members)) + 1


def dual_vertices(fidelity: NormSpec, basis: SubspaceBasis) -> np.ndarray:
    """(n_v, N) table whose row maxima against x give the distance from x to
    the span: the one pass of ``_dual_tables`` on a stack of one."""
    return next(_dual_tables(fidelity, _complements(basis.matrix[None])))[0]


def threshold(tau: float) -> float:
    """The largest distance that counts as within tau > 0."""
    if not tau > 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    return tau * (1.0 + FEAS_TOL)


def _check_slot(name: str, value: float | None, fixed: float, owner: str) -> None:
    """ValueError unless a positional tolerance slot holds None or the value in force."""
    if value not in (None, fixed):
        raise ValueError(f"{name} {value} is not {owner} {fixed}")


def _check_finite(data: np.ndarray) -> None:
    """ValueError unless a data vector, or each row of a data matrix, is finite."""
    if not np.isfinite(data).all():
        row = data if data.ndim == 1 else data[~np.isfinite(data).all(axis=1)][0]
        raise ValueError(f"data must be finite, got {row.tolist()}")


def subspace_distance(
    fidelity: NormSpec, basis: SubspaceBasis, d: np.ndarray
) -> tuple[float, np.ndarray]:
    """Distance from d to the subspace in the fidelity norm, with a closest point.

    Euclidean distances are orthogonal projections.  l1, linf and weighted
    l1 distances are the row maximum of the span's ``dual_vertices``, and
    the closest point is read off the maximising vertex by a
    ``_Certificate``, the rule a solve runs on its winning span, here
    built for this one call.  Weighted lp with p > 1 is the Newton fit of
    ``member_distances`` on one row and one member.  No solve calls it: a
    search goes through the level tables, and this is the reference the
    tests check them against.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (basis.ambient_dim,):
        raise ValueError(f"data has shape {d.shape}, ambient dimension is {basis.ambient_dim}")
    _check_finite(d)
    if basis.dim == 0:
        return float(norm_eval(fidelity, d)), np.zeros_like(d)
    bm = basis.matrix
    if fidelity.kind == "l2":
        v = bm @ (bm.T @ d)
        return float(np.linalg.norm(d - v)), v
    if not fidelity.polyhedral:
        dist, coeffs = _PowerLevel(fidelity, _lone(bm, basis.provenance)).fit(d[None, :])
        return float(dist[0, 0]), bm @ coeffs[0, 0]
    table = dual_vertices(fidelity, basis)
    scores = table @ d
    best = int(np.argmax(scores))
    dist = float(scores[best])
    return dist, bm @ _Certificate(fidelity, basis.provenance, bm, table[best]).closest(d, dist)[0]


class _Certificate:
    """A polyhedral closest-point rule over the columns of matrix, the atoms
    ``provenance``, for the data whose distance the dual vertex z attains.

    Every closest residual r = d - matrix c meets z with equality in
    Hölder's inequality, which pins r_i = dist * sign(z_i) on supp(z) for
    linf, and r_i = 0 where |z_i| < w_i for l1 and weighted l1.  The zero
    vertex, the first row of every dual vertex table, is the one that
    attains dist = 0, where every row has |r_i| <= 0 and so all of them pin
    r_i = 0.  The pinned rows give c = c0 + F y, F spanning the f directions
    they leave free; singular values at or below _PIN_RANK_RTOL times the
    Frobenius norm of matrix count as zero.  The closest points form a
    bounded polytope, each of whose vertices holds f more rows at a bound
    (+-dist for linf, 0 for l1), so those completions are the candidates,
    in lexicographic order of their rows, then of their bounds, each an
    f x f solve for y.

    Everything but dist and d is fixed by (matrix, z): the pinned rows and
    the map from their targets to c0, F, the completion rows and the SVDs of
    their blocks, and the bounds as dist times a sign table.  The
    constructor factors them once, and ``closest`` applies them to one d
    with the floating-point operations of a single pass, in its order.
    """

    def __init__(
        self, fidelity: NormSpec, provenance: tuple[int, ...], matrix: np.ndarray, z: np.ndarray
    ) -> None:
        self.fidelity, self.provenance, self.matrix = fidelity, provenance, matrix
        size = np.abs(z)
        if fidelity.kind == "linf":
            top = size.max()
            self.pinned = size > _ACTIVE_SLACK * top if top > 0.0 else np.full(z.size, True)
            self.shift, signs = np.sign(z)[self.pinned], (1.0, -1.0)
        else:
            self.pinned = size < (1.0 - _ACTIVE_SLACK) * _weights(fidelity, z.size)
            self.shift, signs = np.zeros(np.count_nonzero(self.pinned)), (0.0,)
        floor, pinned_rows = _PIN_RANK_RTOL * np.linalg.norm(matrix), matrix[self.pinned]
        # Rows within floor in Frobenius norm have every singular value there too: they pin nothing.
        self.to_c0: tuple[np.ndarray, np.ndarray] | None = None
        if np.linalg.norm(pinned_rows) > floor:
            u, s, vt = np.linalg.svd(pinned_rows)
            rank = np.count_nonzero(s > floor)
            self.to_c0 = vt[:rank].T, (u[:, :rank] / s[:rank]).T
            self.free_dirs = vt[rank:].T
            free_atoms = matrix @ self.free_dirs
        else:
            self.free_dirs, free_atoms = np.eye(matrix.shape[1]), matrix
        f = self.free_dirs.shape[1]
        if f:
            spare = (~self.pinned).nonzero()[0]
            rows = spare[_indices(spare.size, f)]
            blocks = free_atoms[rows]
            self.bounds = np.array(list(product(signs, repeat=f)))
            if f == 1:  # 1 x 1 blocks are their own singular values
                keep = np.abs(blocks[:, 0, 0]) > floor
                self.blocks = blocks[keep]
            else:
                u, s, vt = np.linalg.svd(blocks)
                keep = s[:, -1] > floor
                self.blocks = u[keep], s[keep, None], vt[keep]
            self.rows = rows[keep]

    def closest(self, d: np.ndarray, dist: float) -> tuple[np.ndarray, float]:
        """Coefficients of a closest point to d, which z certifies to lie at
        distance dist, and the residual norm they reach.

        The first candidate within the rounding slack ``_FIT_ULPS`` of dist
        is returned; RuntimeError, naming the subspace, means there was none,
        so z does not certify dist.
        """
        matrix, f = self.matrix, self.free_dirs.shape[1]
        if self.to_c0 is None:
            c0, rest = 0.0, d
        else:
            right, left = self.to_c0
            c0 = right @ (left @ (d[self.pinned] - dist * self.shift))
            rest = d - matrix @ c0
        if not f:
            coeffs = c0[None]
        else:
            rhs = rest[self.rows][:, None] - dist * self.bounds
            if f == 1:
                y = rhs / self.blocks
            else:
                u, s, vt = self.blocks
                y = rhs @ u / s @ vt
            coeffs = c0 + y.reshape(-1, f) @ self.free_dirs.T
        norms = norm_eval(self.fidelity, d - coeffs @ matrix.T)
        # A first candidate that reaches dist itself is within any slack.
        if norms.size and norms[0] <= dist:
            return coeffs[0], float(norms[0])
        rounding = norm_eval(self.fidelity, np.abs(d) + np.abs(coeffs) @ np.abs(matrix).T)
        hits = (norms - dist <= _FIT_SLACK * rounding).nonzero()[0]
        if not hits.size:
            raise RuntimeError(
                f"no vertex completion of the dual certificate attains distance {dist:.17g} "
                f"for basis {self.provenance or matrix.shape}"
            )
        return coeffs[hits[0]], float(norms[hits[0]])


def member_distances(fidelity: NormSpec, basis: SubspaceBasis, rows: np.ndarray) -> np.ndarray:
    """Fidelity distance from each row to the subspace, without closest points.

    This is the stacked table of the one member: a product with the
    projector's upper triangle for l2, one product with the span's
    ``dual_vertices`` for polyhedral norms, and one batched Newton fit over
    every row for weighted lp with p > 1.  A zero-dimensional span is
    priced by the norm itself, and the whole space is at distance zero.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != basis.ambient_dim:
        raise ValueError(f"expected (n, {basis.ambient_dim}) rows, got {rows.shape}")
    _check_finite(rows)
    if basis.dim == 0:
        return np.asarray(norm_eval(fidelity, rows))
    if basis.dim == basis.ambient_dim:
        return np.zeros(rows.shape[0])
    table = _level_stack(fidelity, basis.ambient_dim)
    table.append(_lone(basis.matrix, basis.provenance))
    return table.nearest(rows)[:, 0]


def _lone(matrix: np.ndarray, provenance: tuple[int, ...]) -> SpanFamily:
    """The family of the one span of an (N, k) orthonormal matrix."""
    n, k = matrix.shape
    return SpanFamily(k, n, DEFAULT_SPAN_TOL, matrix[None], np.array([provenance], dtype=int))


# A scan's answer: the winner's level and its index in the stack.
_Found = tuple[int, int]


class _LevelStack:
    """The members of levels 1..L side by side, in (level, provenance) order.

    ``append`` adds a level from its ``SpanFamily``'s arrays: ``provenances``
    lists the members' atom subsets, ``matrices`` views of their bases, and
    ``starts[l - 1]`` is the index of the first member of level l.  A
    dictionary spanning R^N has a member at every level, so no level is
    empty.  Each subclass prices the whole stack at once: ``nearest(rows)``
    gives each row's distance to the nearest member of every level, an
    (n, L) matrix, and ``_distances(d, start, stop)`` the distances from d
    to the members from index start to stop.  A scan only names its winner;
    ``closest(d, m, dictionary)`` then gives the coefficients over member
    m's atoms of a closest point to d, and the residual norm they reach,
    from member m alone.  Its factors are fixed by the member (and, for a
    polyhedral norm, the attaining dual vertex), so they are built the
    first time a solve needs them and kept in ``factors``, one entry per
    member or per vertex column at most; ``dict.setdefault`` keeps the
    first entry when concurrent solves build one twice.  ``width`` is the
    number of table cells per row that ``nearest`` holds at once, which
    sets ``block_rows`` (see ``_PROFILE_CELLS``), and ``cells[l - 1]`` the
    number a single-vector scan of level l reads.  ``_first(d, thresh,
    start, stop)`` is the scan of one group of levels; by default it
    compares every ``_distances`` with thresh.
    """

    def __init__(self, fidelity: NormSpec) -> None:
        self.fidelity = fidelity
        self.provenances: list[tuple[int, ...]] = []
        self.matrices: list[np.ndarray] = []
        self.starts: list[int] = []
        self.cells: list[int] = []
        self.width, self.floor = 0, 1
        self.factors: dict[int, tuple[np.ndarray, np.ndarray] | _Certificate] = {}

    @property
    def levels(self) -> int:
        return len(self.starts)

    @property
    def block_rows(self) -> int:
        return max(self.floor, _PROFILE_CELLS // max(1, self.width))

    def append(self, family: SpanFamily) -> None:
        self.cells.append(self._append(family))
        self.starts.append(len(self.provenances))
        self.provenances.extend(map(tuple, family.provenances.tolist()))
        self.matrices.extend(family.bases)

    def first_within(self, d: np.ndarray, thresh: float, lo: int, hi: int) -> _Found | None:
        """The first member within thresh of d at levels lo..hi, by level and
        then provenance, as (level, index in the stack), or None.

        Consecutive levels are priced with one product while their cells
        stay within ``_SCAN_CELLS``, and the scan stops at the first such
        group holding a member within thresh, so large levels above the
        answer are never read.
        """
        while lo <= hi:
            top, cells = lo, self.cells[lo - 1]
            while top < hi and cells + self.cells[top] <= _SCAN_CELLS:
                cells += self.cells[top]
                top += 1
            start = self.starts[lo - 1]
            stop = self.starts[top] if top < self.levels else len(self.provenances)
            first = self._first(d, thresh, start, stop)
            if first is not None:
                return bisect_right(self.starts, first), first
            lo = top + 1
        return None

    def _first(self, d: np.ndarray, thresh: float, start: int, stop: int) -> int | None:
        """Index in the stack of the first member from start to stop within
        thresh of d, or None."""
        feasible = self._distances(d, start, stop) <= thresh
        first = int(feasible.argmax())
        return start + first if feasible[first] else None

    def _pseudo_inverse(self, m: int, dictionary: Dictionary) -> tuple[np.ndarray, np.ndarray]:
        """Member m's atoms and their pseudo-inverse, built the first time m wins.

        A member's atoms have full column rank, so no singular value is cut,
        and the inverse is the SVD's V S^-1 U^T, twice as fast as ``pinv``.
        """
        factors = self.factors.get(m)
        if factors is None:
            atoms = dictionary.subset(self.provenances[m])
            u, s, vt = np.linalg.svd(atoms, full_matrices=False)
            factors = self.factors.setdefault(m, (atoms, vt.T @ (u.T / s[:, None])))
        return factors


class _QuadraticStack(_LevelStack):
    """l2 stacked table: every member's distance from one product.

    The one table is ``gram``: its row m is the upper triangle of I - P_m
    with doubled off-diagonal entries, so ``gram`` times a row's pair
    products x_i x_j (i <= j) gives its squared distances <x x^T, I - P_m>.
    A level's members are contiguous rows, so a profile block prices each
    level with one product and takes its minimum down the product's
    columns.  ``_distances`` prices members from their own bases U in
    residual form ||d - U U^T d||, as accurate as one projection.

    A single-vector scan screens its group with the gram product and
    re-prices in residual form only the members it cannot settle.  The two
    forms of a member's squared distance differ by at most ``slack`` times
    ||d||^2 (see ``_SCREEN_ULPS``), so a member whose gram value is at most
    thresh^2 - slack ||d||^2 is within thresh in residual form too, and one
    above thresh^2 + slack ||d||^2 is not.  The members in between are
    priced one at a time by ``_distances``, in scan order, until one
    passes, so the scan names the member that a scan pricing every member
    alone in residual form names, whatever the grouping.  ``slack`` grows
    with the largest orthonormality defect max |U^T U - I| of any member,
    measured as each level is appended.
    """

    def __init__(self, fidelity: NormSpec, n: int) -> None:
        super().__init__(fidelity)
        self.upper = np.triu_indices(n)
        self.gram = np.zeros((0, len(self.upper[0])))
        self.slack, self.floor = 0.0, _PROFILE_ROWS

    def _append(self, family: SpanFamily) -> int:
        i, j = self.upper
        bases = family.bases
        n, k = bases.shape[1:]
        residual = np.eye(n) - bases @ bases.transpose(0, 2, 1)
        gram = residual[:, i, j] * np.where(i == j, 1.0, 2.0)
        self.gram = np.vstack([self.gram, gram])
        self.width = max(self.width, len(i) + len(bases))
        spread = (n - 1) * float(np.abs(bases.transpose(0, 2, 1) @ bases - np.eye(k)).max())
        rounding = _SCREEN_ULPS * n**3 * np.finfo(float).eps
        self.slack = max(self.slack, rounding + spread * (1.0 + spread))
        return gram.size

    def nearest(self, rows: np.ndarray) -> np.ndarray:
        i, j = self.upper
        pairs, ends = rows.T[i], self.starts[1:] + [len(self.provenances)]
        pairs *= rows.T[j]
        squared = [np.min(self.gram[s:e] @ pairs, axis=0) for s, e in zip(self.starts, ends)]
        return np.sqrt(np.maximum(np.transpose(squared), 0.0))

    def _distances(self, d: np.ndarray, start: int, stop: int) -> np.ndarray:
        residuals = [d - b @ (d @ b) for b in self.matrices[start:stop]]
        return np.sqrt([r @ r for r in residuals])

    def _first(self, d: np.ndarray, thresh: float, start: int, stop: int) -> int | None:
        i, j = self.upper
        squared = self.gram[start:stop] @ (d[i] * d[j])
        square, slack = thresh * thresh, self.slack * float(d @ d)
        # Written as "not above" so that a NaN product is re-priced, never dropped.
        for m in (~(squared > square + slack)).nonzero()[0]:
            member = start + int(m)
            if squared[m] <= square - slack or self._distances(d, member, member + 1)[0] <= thresh:
                return member
        return None

    def closest(self, d: np.ndarray, m: int, dictionary: Dictionary) -> tuple[np.ndarray, float]:
        atoms, inverse = self._pseudo_inverse(m, dictionary)
        coeffs = inverse @ d
        return coeffs, float(norm_eval(self.fidelity, atoms @ coeffs - d))


class _DualStack(_LevelStack):
    """Polyhedral stacked table: the members' dual vertex tables side by side.

    ``vertices`` is (N, V).  Member m owns the columns from ``bounds[m]`` to
    ``bounds[m + 1]``, so its distances are the maxima over that segment,
    and level l owns those of its members, from ``bounds[starts[l - 1]]``.
    """

    def __init__(self, fidelity: NormSpec, n: int) -> None:
        super().__init__(fidelity)
        self.vertices = np.zeros((n, 0))
        self.bounds = np.zeros(1, dtype=np.intp)

    def _append(self, family: SpanFamily) -> int:
        tables, counts = zip(*_dual_tables(self.fidelity, family.complements))
        self.bounds = np.concatenate([self.bounds, self.width + np.cumsum(np.concatenate(counts))])
        self.vertices = np.ascontiguousarray(np.hstack([self.vertices, *(t.T for t in tables)]))
        self.width = self.vertices.shape[1]
        return sum(t.size for t in tables)

    def nearest(self, rows: np.ndarray) -> np.ndarray:
        distances = np.maximum.reduceat(rows @ self.vertices, self.bounds[:-1], axis=1)
        return np.minimum.reduceat(distances, self.starts, axis=1)

    def _distances(self, d: np.ndarray, start: int, stop: int) -> np.ndarray:
        left, right = self.bounds[start], self.bounds[stop]
        return np.maximum.reduceat(d @ self.vertices[:, left:right], self.bounds[start:stop] - left)

    def closest(self, d: np.ndarray, m: int, dictionary: Dictionary) -> tuple[np.ndarray, float]:
        # The certificate comes from member m's own columns, so its bits do
        # not depend on what else the stack holds.
        scores = d @ self.vertices[:, self.bounds[m] : self.bounds[m + 1]]
        best = int(scores.argmax())
        column = int(self.bounds[m]) + best
        certificate = self.factors.get(column)
        if certificate is None:
            provenance = self.provenances[m]
            atoms = dictionary.subset(provenance)
            certificate = _Certificate(self.fidelity, provenance, atoms, self.vertices[:, column])
            certificate = self.factors.setdefault(column, certificate)
        return certificate.closest(d, float(scores[best]))


def _curvature(w: np.ndarray, t: np.ndarray, p: float) -> np.ndarray:
    """Curvature weights w^2 t^(p - 2) of the weighted lp norm at scaled magnitudes t."""
    return w * w * np.maximum(t, _CURVATURE_FLOOR) ** (p - 2.0)


def _weighted_gram(bases_t: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(B, K, K) matrices U_b^T diag(weights_b) U_b from (B, K, N) transposed bases.

    Built one row at a time, so no temporary is larger than the bases.
    """
    count, k, _ = bases_t.shape
    gram = np.empty((count, k, k))
    for i in range(k):
        gram[:, i] = np.sum(bases_t[:, i, None, :] * bases_t * weights[:, None, :], axis=-1)
    return gram


class _PowerLevel:
    """Weighted-lp level table (p > 1): a family's bases and one Newton fit.

    ``fit`` prices every (row, member) pair at once.  For p >= 2 it runs
    ``_newton`` on the member's K basis coefficients.  For p < 2 residuals
    that end near zero make that Newton oscillate, so it runs on the dual
    problem, whose exponent q = p / (p - 1) exceeds 2: 1 / dist(d, V) is the
    (1/w, q) distance from z0 = C u / |u|^2 to span(C E), with C an
    orthonormal basis of V-perp, u = C^T d and E one of u-perp.  The dual
    minimiser z gives the primal residual r ~ sign(z) |z / w|^(q - 1) / w.
    The coefficients fit d - r, first by projection and then corrected by
    least squares weighted with the primal curvature w^2 |r|^(p - 2), which
    keeps the near-zero residuals near zero (the projection alone leaves
    them at the dual's error, up to 1e-8 in distance at p = 1.01).  The
    distance is the norm of d - U c at the returned coefficients c.  Every
    operation acts on one pair's own numbers, so a pair gets the same bits
    fitted alone, in a block, or in a whole level.
    """

    def __init__(self, fidelity: NormSpec, family: SpanFamily) -> None:
        self.fidelity, self.bases, self.provenances = fidelity, family.bases, family.provenances
        self.weights = np.asarray(fidelity.weights, dtype=float)
        n_members, n, k = self.bases.shape
        self.dual = fidelity.p < 2.0 and k < n
        if self.dual:
            self.complements = family.complements
        # Unknowns per row, over all members: the fit's largest arrays hold
        # N cells for each, and its Python steps are paid once per block.
        self.width = n_members * max(k, n - k - 1 if self.dual else 0)

    def fit(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(n, M) distances and (n, M, K) coefficients of every row against every member."""
        n_rows, (n_members, _, k) = rows.shape[0], self.bases.shape
        which = np.tile(np.arange(n_members), n_rows)
        data = np.repeat(rows, n_members, axis=0)
        bases = self.bases[which]
        if self.dual:
            coeffs = self._dual_fit(bases, data, which)
        else:
            coeffs = self._newton(self.weights, self.fidelity.p, bases, data, which)
        dist = norm_eval(self.fidelity, data - np.sum(bases * coeffs[:, None, :], axis=-1))
        return dist.reshape(n_rows, n_members), coeffs.reshape(n_rows, n_members, k)

    def _dual_fit(self, bases: np.ndarray, data: np.ndarray, which: np.ndarray) -> np.ndarray:
        """Coefficients of every pair through the dual problem (p < 2)."""
        w, p = self.weights, self.fidelity.p
        comp = self.complements[which]
        u = np.sum(comp.transpose(0, 2, 1) * data[:, None, :], axis=-1)
        norm2 = np.sum(u * u, axis=-1)
        inside = norm2 == 0.0  # data in the span: residual 0
        z0 = np.sum(comp * (u / np.where(inside, 1.0, norm2)[:, None])[:, None, :], axis=-1)
        perp_t = np.linalg.qr(u[:, :, None], mode="complete")[0][:, :, 1:].transpose(0, 2, 1)
        dual_bases = np.sum(comp[:, :, None, :] * perp_t[:, None, :, :], axis=-1)
        q = p / (p - 1.0)
        y = self._newton(1.0 / w, q, dual_bases, z0, which, dual=True)
        z = z0 - np.sum(dual_bases * y[:, None, :], axis=-1)
        peak, t = scaled_magnitudes(np.abs(z) / w)
        scale = w * np.where(inside, np.inf, peak * np.sum(t**q, axis=-1))[:, None]
        residual = np.sign(z) * t ** (q - 1.0) / scale
        bases_t = bases.transpose(0, 2, 1)
        coeffs = np.sum(bases_t * (data - residual)[:, None, :], axis=-1)
        misfit = data - residual - np.sum(bases * coeffs[:, None, :], axis=-1)
        curv = _curvature(w, scaled_magnitudes(w * np.abs(residual))[1], p)
        target = np.sum(bases_t * (curv * misfit)[:, None, :], axis=-1)
        return coeffs + np.linalg.solve(_weighted_gram(bases_t, curv), target[:, :, None])[:, :, 0]

    def _newton(
        self, w: np.ndarray, p: float, bases: np.ndarray, data: np.ndarray, which: np.ndarray,
        dual: bool = False,
    ) -> np.ndarray:
        """Coefficients c minimising phi(c) = ||data_i - bases_i c||_{w,p} for every pair i.

        Damped Newton on phi^2 from c = U^T d.  With r the residual,
        m = max_i w_i |r_i|, t = w |r| / m, S = sum_i t_i^p and
        g = U^T (w t^(p-1) sign(r)), the step is

            m [(p - 1) U^T diag(w^2 t^(p-2)) U - (p - 2) g g^T / S]^(-1) g,

        so every power is taken of a number in [0, 1]; where that is not a
        descent direction, a gradient step of length m replaces it.  Each
        step backtracks until Armijo's condition holds on phi, and a pair
        stops once a step gains at most 1e-3 * DIST_TOL in the distance (in
        phi itself, or for the ``dual`` fit in 1 / phi).  A pair still
        gaining after ``_MAX_NEWTON_STEPS`` raises ConvergenceError.
        """
        k, bases_t = bases.shape[2], bases.transpose(0, 2, 1)
        spec = NormSpec("wlp", p=p, weights=tuple(w))

        def residual(pairs: np.ndarray, c: np.ndarray) -> np.ndarray:
            return data[pairs] - np.sum(bases[pairs] * c[:, None, :], axis=-1)

        coeffs = np.sum(bases_t * data[:, None, :], axis=-1)
        active = np.arange(len(data))
        for _ in range(_MAX_NEWTON_STEPS):
            c, u_t = coeffs[active], bases_t[active]
            r = residual(active, c)
            peak, t = scaled_magnitudes(w * np.abs(r))
            total = np.maximum(np.sum(t**p, axis=-1), 1.0)  # >= 1 already where peak > 0
            phi = peak * total ** (1.0 / p)
            g = np.sum(u_t * (w * t ** (p - 1.0) * np.sign(r))[:, None, :], axis=-1)
            hess = (p - 1.0) * _weighted_gram(u_t, _curvature(w, t, p))
            hess -= (p - 2.0) * g[:, :, None] * g[:, None, :] / total[:, None, None]
            trace = np.sum(np.diagonal(hess, axis1=1, axis2=2), axis=-1)
            hess += (_RIDGE * trace)[:, None, None] * np.eye(k)
            hess[~(trace > 0.0)] = np.eye(k)
            step = peak[:, None] * np.linalg.solve(hess, g[:, :, None])[:, :, 0]
            bad = ~((trace > 0.0) & (np.sum(g * step, axis=-1) > 0.0))
            length = np.maximum(np.linalg.norm(g[bad], axis=-1), np.finfo(float).tiny)
            step[bad] = peak[bad, None] * g[bad] / length[:, None]
            slope = -np.sum(g * step, axis=-1) * total ** (1.0 / p - 1.0)  # d phi / d alpha

            new_c, new_phi, alpha = c.copy(), phi.copy(), np.ones(len(active))
            trying = np.arange(len(active))
            for _ in range(_MAX_HALVINGS):
                trial = c[trying] + alpha[trying, None] * step[trying]
                trial_phi = norm_eval(spec, residual(active[trying], trial))
                ok = trial_phi <= phi[trying] + 1e-4 * alpha[trying] * slope[trying]
                new_c[trying[ok]], new_phi[trying[ok]] = trial[ok], trial_phi[ok]
                trying = trying[~ok]
                if not trying.size:
                    break
                alpha[trying] *= 0.5

            coeffs[active] = new_c
            gain = phi - new_phi
            going = gain > 1e-3 * DIST_TOL * (phi * new_phi if dual else 1.0)
            active, gain = active[going], gain[going]
            if not active.size:
                return coeffs
        provenance = tuple(self.provenances[which[active[0]]].tolist())
        raise ConvergenceError(
            f"wlp Newton fit for basis {provenance or self.bases.shape[1:]} did not "
            f"converge in {_MAX_NEWTON_STEPS} steps (last gain {gain[0]:.3g})"
        )

    def distances(self, d: np.ndarray) -> np.ndarray:
        return self.fit(d[None, :])[0][0]

    def nearest(self, rows: np.ndarray) -> np.ndarray:
        return np.min(self.fit(rows)[0], axis=1)


class _PowerStack(_LevelStack):
    """Weighted-lp stacked table (p > 1): one ``_PowerLevel`` fit per level.

    Each level is its own Newton fit, so a scan fits one level at a time
    and stops at the first level holding a member within thresh; a profile
    block fits each level in turn.
    """

    def __init__(self, fidelity: NormSpec) -> None:
        super().__init__(fidelity)
        self.tables: list[_PowerLevel] = []

    def _append(self, family: SpanFamily) -> int:
        self.tables.append(_PowerLevel(self.fidelity, family))
        self.width = max(self.width, self.tables[-1].width)
        return self.tables[-1].width

    def nearest(self, rows: np.ndarray) -> np.ndarray:
        return np.column_stack([table.nearest(rows) for table in self.tables])

    def first_within(self, d: np.ndarray, thresh: float, lo: int, hi: int) -> _Found | None:
        for level in range(lo, hi + 1):
            feasible = self.tables[level - 1].distances(d) <= thresh
            if feasible.any():
                return level, self.starts[level - 1] + int(feasible.argmax())
        return None

    def closest(self, d: np.ndarray, m: int, dictionary: Dictionary) -> tuple[np.ndarray, float]:
        matrix = self.matrices[m]
        fit = _PowerLevel(self.fidelity, _lone(matrix, self.provenances[m])).fit(d[None])[1][0, 0]
        atoms, inverse = self._pseudo_inverse(m, dictionary)
        coeffs = inverse @ (matrix @ fit)
        return coeffs, float(norm_eval(self.fidelity, atoms @ coeffs - d))


def _level_stack(fidelity: NormSpec, n: int) -> _LevelStack:
    """An empty stacked table of the fidelity's norm family in R^n."""
    if fidelity.kind == "l2":
        return _QuadraticStack(fidelity, n)
    if fidelity.polyhedral:
        return _DualStack(fidelity, n)
    return _PowerStack(fidelity)


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of one smallest-support solve.

    ``support`` is the lexicographically smallest atom subset attaining the
    optimum, ``coefficients`` its weights, and ``residual`` the fidelity
    norm of the approximation error (at most tau up to the feasibility
    slack).  Equality is identity.
    """

    value: int
    support: tuple[int, ...]
    coefficients: np.ndarray
    residual: float


def span_family(dictionary: Dictionary, K: int) -> SpanFamily:
    """The size-K span family of the dictionary, enumerated once per K.

    The family is memoised on the dictionary, so every solver, constant set
    and CLI listing built from one dictionary shares one enumeration, at
    the dictionary's tolerance, and through the family one ``pair_dims`` pass.
    """
    if K not in dictionary._families:
        dictionary._families[K] = enumerate_spans(dictionary, K)
    return dictionary._families[K]


class L0Solver:
    """Shared search state for many solves against one dictionary and norm.

    Span families come from ``span_family``, so they are enumerated once
    per dictionary, at the dictionary's own tolerance.  Feasibility is
    ``threshold(tau)`` and the weighted-lp Newton fit stops at ``DIST_TOL``,
    both module constants.  The positional ``span_tol``, ``feas_tol`` and
    ``dist_tol`` slots take None or the value in force (the dictionary's
    span_tol, FEAS_TOL, DIST_TOL), and any other value raises ValueError.

    The solver holds the stacked table of the fidelity's norm family
    (``level_stack``).  A solve's scan names the first member within tau,
    and the ``closest`` method of the stack gives that member's
    coefficients, from factors the stack keeps once built.  The stack grows
    one level at a time, only when a solve finds no built member within
    tau, so a solve enumerates no family above its answer, nor the level-0
    family; ``distance_profiles`` grows it to level N - 1, and
    ``value_leq`` to the level it asks about.  Growth happens in the
    calling thread, so concurrent solves need ``distance_profiles`` or a
    dense solve first; afterwards the levels are only read, the kept
    factors only gain entries (the first one built wins), and data vectors
    may be solved concurrently.
    """

    def __init__(
        self,
        dictionary: Dictionary,
        fidelity: NormSpec,
        span_tol: float | None = None,
        feas_tol: float | None = None,
        dist_tol: float | None = None,
    ) -> None:
        _check_slot("span_tol", span_tol, dictionary.span_tol, "the dictionary's")
        _check_slot("feas_tol", feas_tol, FEAS_TOL, "the solver's")
        _check_slot("dist_tol", dist_tol, DIST_TOL, "the solver's")
        self.dictionary = dictionary
        self.fidelity = fidelity
        self._stack = _level_stack(fidelity, dictionary.n_dim)
        # The first full-rank subset and its atoms, once a solve reaches level N.
        self._dense: tuple[tuple[int, ...], np.ndarray] | None = None

    def family(self, k: int) -> SpanFamily:
        return span_family(self.dictionary, k)

    def level_stack(self, top: int) -> _LevelStack:
        """The stacked table, grown through level top (0 <= top < N) if it
        does not reach it yet."""
        if not 0 <= top < self.dictionary.n_dim:
            raise ValueError(f"the stack covers levels 1..{self.dictionary.n_dim - 1}, got {top}")
        while self._stack.levels < top:
            self._stack.append(self.family(self._stack.levels + 1))
        return self._stack

    def _check_data(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        if d.shape != (self.dictionary.n_dim,):
            raise ValueError(
                f"data has shape {d.shape}, expected ({self.dictionary.n_dim},)"
            )
        _check_finite(d)
        return d

    def solve(self, d: np.ndarray, tau: float) -> SolveResult:
        """Smallest support within tau of d, and its lexicographically first witness.

        Level 0 is priced by the norm itself, and the built levels are
        scanned next; the stack grows by one level only when none of them
        holds a member within tau.  The winner's coefficients come from the
        stack's ``closest`` rule, and at level N from interpolating d on
        the first full-rank subset.
        """
        d = self._check_data(d)
        n, thresh = self.dictionary.n_dim, threshold(tau)
        residual = float(norm_eval(self.fidelity, d))
        if residual <= thresh:
            return SolveResult(value=0, support=(), coefficients=np.zeros(0), residual=residual)
        level = 1
        while level < n:
            stack = self.level_stack(level)
            found = stack.first_within(d, thresh, level, stack.levels)
            if found is not None:
                k, m = found
                support = stack.provenances[m]
                coeffs, residual = stack.closest(d, m, self.dictionary)
                return SolveResult(value=k, support=support, coefficients=coeffs, residual=residual)
            level = stack.levels + 1
        if self._dense is None:
            support = tuple(self.family(n).provenances[0].tolist())
            self._dense = support, self.dictionary.subset(support)
        support, atoms = self._dense
        coeffs = np.linalg.solve(atoms, d)
        residual = float(norm_eval(self.fidelity, atoms @ coeffs - d))
        return SolveResult(value=n, support=support, coefficients=coeffs, residual=residual)

    def value(self, d: np.ndarray, tau: float) -> int:
        return self.solve(d, tau).value

    def value_leq(self, d: np.ndarray, tau: float, K: int) -> bool:
        """True when some K atoms approximate d within tau.

        Only the size-K spans need checking: every smaller feasible span is
        contained in a size-K one, which is then feasible too.  Level K is
        read from the solver's stack, grown through level K if it does not
        reach it yet.
        """
        d, thresh = self._check_data(d), threshold(tau)
        n = self.dictionary.n_dim
        check_level(K, n)
        if K == 0:
            return bool(norm_eval(self.fidelity, d) <= thresh)
        if K == n:
            return True
        return self.level_stack(K).first_within(d, thresh, K, K) is not None

    def value_eq(self, d: np.ndarray, tau: float, K: int) -> bool:
        if K == 0:
            return self.value_leq(d, tau, 0)
        return self.value_leq(d, tau, K) and not self.value_leq(d, tau, K - 1)

    def distance_profiles(self, data: np.ndarray, workers: int = 1) -> np.ndarray:
        """(n, N + 1) matrix of distances to the nearest size-k span, k = 0..N.

        Row i column k is the fidelity distance from data[i] to the closest
        member of the size-k family; column N is identically zero.  The
        value of a solve is the first column whose entry is within the
        feasibility threshold, so one profile matrix serves every tau.
        The stack is grown to level N - 1 here, before any worker starts;
        workers price its ``block_rows``-row blocks, each with one ``nearest``.
        """
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != self.dictionary.n_dim:
            raise ValueError(f"expected (n, {self.dictionary.n_dim}) data, got {data.shape}")
        _check_finite(data)
        n_dim = self.dictionary.n_dim
        stack = self.level_stack(n_dim - 1)
        # Column 0 comes first, so the norm's temporaries never sit beside the profiles.
        norms = norm_eval(self.fidelity, data)
        profiles = np.empty((data.shape[0], n_dim + 1))
        profiles[:, 0], profiles[:, n_dim] = norms, 0.0
        del norms
        block = stack.block_rows
        n_blocks = -(-data.shape[0] // block) if stack.levels else 0

        def profile_block(b: int) -> None:
            rows = slice(b * block, (b + 1) * block)
            profiles[rows, 1:n_dim] = stack.nearest(data[rows])

        map_chunks(profile_block, n_blocks, workers)
        return profiles


def values_from_profiles(
    profiles: np.ndarray, tau: float, feas_tol: float | None = None
) -> np.ndarray:
    """Smallest-support values for every profile row at tolerance tau > 0.

    The positional ``feas_tol`` slot takes None or FEAS_TOL, like
    ``L0Solver``'s tolerance slots."""
    _check_slot("feas_tol", feas_tol, FEAS_TOL, "the solver's")
    return np.argmax(profiles <= threshold(tau), axis=1)


def solve_l0(dictionary: Dictionary, fidelity: NormSpec, d: np.ndarray, tau: float) -> SolveResult:
    return L0Solver(dictionary, fidelity).solve(d, tau)

