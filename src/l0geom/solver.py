"""Exact smallest-support approximation by exhaustive span search.

For data d, tolerance tau, and fidelity norm f, the solver finds the
smallest number of dictionary atoms whose combination lands within tau of
d, searching support sizes upward.  Feasibility at size k only depends on
the span of the chosen atoms, so the search runs over the distinct spans
of size-k subsets instead of the subsets themselves; rank-deficient
subsets never help and are skipped.  The attained value never exceeds the
ambient dimension N, because the dictionary spans R^N.

Distances to a span V come in one form per norm family.  Euclidean
distances are orthogonal projections.  Polyhedral fidelities (l1, linf,
and weighted l1) use LP duality: dist_f(x, V) = max <z, x> over z in
V-perp with dual norm at most 1, and the maximum is attained at one of
finitely many vertices that depend on V alone.  ``dual_vertices`` lists
them once per span, after which every distance is a row maximum of one
matrix product.  Weighted lp with p > 1 runs coordinate descent.

``L0Solver`` prices a whole level of a span family at once through one
level table per level, built in the calling thread before any worker
starts.  For l2 fidelity the table holds, per member, the upper triangle
of I - P (so a sample's squared distances are one product with its pair
products x_i x_j) and the stacked bases, which single-vector scans use in
residual form ||d - U U^T d||, as accurate as one projection.  For
polyhedral fidelities it is the members' dual vertex tables stacked into
one matrix with segment offsets.  Weighted lp with p > 1 keeps a loop
over members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from . import simplex
from .norms import NormSpec, norm_eval
from .streams import map_chunks
from .subspaces import Dictionary, SpanFamily, SubspaceBasis, enumerate_spans

DEFAULT_FEAS_TOL = 1e-10
DEFAULT_DIST_TOL = 1e-9

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# Coordinate descent caps for wlp with p > 1: full sweeps over the
# coefficients, and doublings of a line search's bracket.
_MAX_SWEEPS = 500
_MAX_BRACKET_DOUBLINGS = 80

# Box-vertex candidates whose dual norm exceeds 1 by more than this are
# dropped as infeasible; the rest are scaled onto the dual unit sphere.
_VERTEX_SLACK = 1e-6

# Largest C(N, N - K) * 2^(N - K) candidate count that an l1 or weighted-l1
# dual vertex table is built from; see dual_vertices.
MAX_DUAL_CANDIDATES = 250_000

# Largest rows x table-columns product one distance_profiles block holds.
# Small blocks keep each worker's transient arrays near 256 KB; larger ones
# run no faster and leave more memory behind in the allocator.
_PROFILE_CELLS = 1 << 15


class ConvergenceError(RuntimeError):
    """Raised when an iterative distance computation hits its iteration cap."""


def _golden_minimize(fn, lo: float, hi: float, tol: float) -> float:
    """Argmin of a unimodal function on [lo, hi] to argument tolerance tol."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _wlp_projection(
    spec: NormSpec, basis: SubspaceBasis, d: np.ndarray, dist_tol: float
) -> tuple[np.ndarray, float]:
    """Minimize the wlp distance from d to the span of ``basis``.

    p = 1 reduces exactly to an l1 program after scaling each row by its
    weight.  For p > 1 the objective is smooth and convex, so cyclic
    coordinate descent with golden-section line searches converges to the
    global minimum; running out of sweeps or of bracket doublings raises
    ConvergenceError.
    """
    bm = basis.matrix
    w = np.asarray(spec.weights, dtype=float)
    if spec.p == 1.0:
        return simplex.l1_projection(bm * w[:, None], d * w)
    k = bm.shape[1]
    y = bm.T @ d  # Euclidean projection as warm start

    def value(coeffs: np.ndarray) -> float:
        return float(norm_eval(spec, d - bm @ coeffs))

    def fail(what: str, improvement: float) -> ConvergenceError:
        return ConvergenceError(
            f"wlp coordinate descent for basis {basis.provenance or bm.shape} {what} "
            f"(last improvement {improvement:.3g})"
        )

    best = value(y)
    improvement = np.inf
    for sweep in range(1, _MAX_SWEEPS + 1):
        previous = best
        for i in range(k):
            def along(t: float, i: int = i) -> float:
                trial = y.copy()
                trial[i] = t
                return value(trial)

            # Expand around the current coordinate until a bracket appears.
            center = y[i]
            half = 1.0
            for _ in range(_MAX_BRACKET_DOUBLINGS):
                if along(center - half) >= best and along(center + half) >= best:
                    break
                half *= 2.0
            else:
                what = f"found no bracket in {_MAX_BRACKET_DOUBLINGS} doublings in sweep {sweep}"
                raise fail(what, improvement)
            y[i] = _golden_minimize(along, center - half, center + half, dist_tol)
            best = value(y)
        improvement = previous - best
        if improvement <= dist_tol * 1e-3:
            return y, best
    raise fail(f"did not converge in {_MAX_SWEEPS} sweeps", improvement)


def _is_polyhedral(fidelity: NormSpec) -> bool:
    """True for the fidelity norms with a polytope unit ball: l1, linf, wlp with p = 1."""
    return fidelity.kind in ("l1", "linf") or (fidelity.kind == "wlp" and fidelity.p == 1.0)


def _indices(n: int, r: int) -> np.ndarray:
    """All r-element subsets of range(n), one per row, in lexicographic order."""
    subsets = list(combinations(range(n), r))
    return np.array(subsets, dtype=int).reshape(len(subsets), r)


def dual_vertices(fidelity: NormSpec, basis: SubspaceBasis) -> np.ndarray:
    """(n_v, N) table whose row maxima against x give the distance from x to the span.

    By LP duality dist_f(x, V) = max <z, x> over the polytope of z in
    V-perp with dual norm at most 1, attained at a vertex.  With C an
    orthonormal basis of V-perp (m = N - K columns) and z = C c:

    * linf fidelity (dual ball the cross-polytope): a vertex vanishes on
      m - 1 coordinates whose rows of C are independent, so c spans the
      null space of those rows; z is scaled to ||z||_1 = 1, with both signs.
    * l1 and weighted l1 fidelity (dual ball the box |z_i| <= w_i): a
      vertex sits on m faces whose rows of C are independent, so
      C_A c = sigma * w_A for an active set A and a sign vector sigma.

    Every candidate is scaled onto the dual unit sphere, so each row is a
    feasible point and the row maximum equals the LP value up to rounding.
    Candidates from singular restricted systems are feasible extra points
    and do no harm.  The zero row keeps the table nonempty when V is all
    of R^N.  The box has C(N, m) 2^m candidates, held in memory at once;
    a ValueError is raised before any work when that count exceeds
    ``MAX_DUAL_CANDIDATES``.
    """
    if not _is_polyhedral(fidelity):
        raise ValueError(f"dual vertices need a polyhedral fidelity norm, got {fidelity}")
    n, m = basis.ambient_dim, basis.ambient_dim - basis.dim
    if m == 0:
        return np.zeros((1, n))
    if fidelity.kind != "linf":
        candidates = math.comb(n, m) * 2**m
        if candidates > MAX_DUAL_CANDIDATES:
            raise ValueError(
                f"{fidelity.kind} dual vertex table for N={n}, K={basis.dim} needs "
                f"C({n}, {m}) * 2^{m} = {candidates} candidates, above the cap of "
                f"{MAX_DUAL_CANDIDATES}"
            )
    comp = basis.complement().matrix
    if fidelity.kind == "linf":
        coeffs = np.linalg.svd(comp[_indices(n, m - 1)])[2][:, -1]
        z = coeffs @ comp.T
        z /= np.sum(np.abs(z), axis=1, keepdims=True)
        z = np.vstack([z, -z])
    else:
        w = np.ones(n) if fidelity.kind == "l1" else np.asarray(fidelity.weights, dtype=float)
        if w.shape != (n,):
            raise ValueError(f"wlp norm has {w.size} weights but dimension is {n}")
        active = _indices(n, m)
        signs = np.array(list(product((-1.0, 1.0), repeat=m)))
        rhs = signs[None, :, :] * w[active][:, None, :]
        coeffs = np.einsum("aij,asj->asi", np.linalg.pinv(comp[active]), rhs)
        z = coeffs.reshape(-1, m) @ comp.T
        scale = np.max(np.abs(z) / w, axis=1)
        keep = (scale > 0.0) & (scale <= 1.0 + _VERTEX_SLACK)
        z = z[keep] / scale[keep, None]
    _, first = np.unique(np.round(z, 12), axis=0, return_index=True)
    return np.vstack([np.zeros((1, n)), z[np.sort(first)]])


def subspace_distance(
    fidelity: NormSpec,
    basis: SubspaceBasis,
    d: np.ndarray,
    dist_tol: float = DEFAULT_DIST_TOL,
) -> tuple[float, np.ndarray]:
    """Distance from d to the subspace in the fidelity norm, with a closest point.

    Euclidean distances are orthogonal projections; l1 and linf are solved
    as small linear programs over the basis coefficients; wlp falls back to
    coordinate descent (exact scaled program when p = 1).  The programs
    are what make the closest point available: a search that needs only
    distances goes through ``member_distances`` instead, and a solve runs
    this once, on its winning span.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (basis.ambient_dim,):
        raise ValueError(f"data has shape {d.shape}, ambient dimension is {basis.ambient_dim}")
    if basis.dim == 0:
        return float(norm_eval(fidelity, d)), np.zeros_like(d)
    bm = basis.matrix
    if fidelity.kind == "l2":
        v = bm @ (bm.T @ d)
        return float(np.linalg.norm(d - v)), v
    try:
        if fidelity.kind == "l1":
            coeffs, dist = simplex.l1_projection(bm, d)
        elif fidelity.kind == "linf":
            coeffs, dist = simplex.linf_projection(bm, d)
        else:
            coeffs, dist = _wlp_projection(fidelity, basis, d, dist_tol)
    except simplex.SimplexError as err:
        raise simplex.SimplexError(
            f"projection program failed for basis {basis.provenance or basis.matrix.shape}: {err}"
        ) from err
    return float(dist), bm @ coeffs


def member_distances(
    fidelity: NormSpec,
    basis: SubspaceBasis,
    rows: np.ndarray,
    dist_tol: float = DEFAULT_DIST_TOL,
) -> np.ndarray:
    """Fidelity distance from each row to the subspace, without closest points.

    Euclidean distances come from one pair of matrix products and
    polyhedral ones from one product with the span's ``dual_vertices``
    table; only wlp with p > 1 runs a per-row coordinate descent.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != basis.ambient_dim:
        raise ValueError(f"expected (n, {basis.ambient_dim}) rows, got {rows.shape}")
    if basis.dim == 0:
        return np.asarray(norm_eval(fidelity, rows))
    if fidelity.kind == "l2":
        proj = rows @ basis.matrix
        gap = np.einsum("ij,ij->i", rows, rows) - np.einsum("ij,ij->i", proj, proj)
        return np.sqrt(np.maximum(gap, 0.0))
    if _is_polyhedral(fidelity):
        return np.max(rows @ dual_vertices(fidelity, basis).T, axis=1)
    return np.array(
        [subspace_distance(fidelity, basis, row, dist_tol)[0] for row in rows]
    )


class _QuadraticLevel:
    """l2 level table: every member's distance from one product.

    Column m of ``gram`` is the upper triangle of I - P_m with doubled
    off-diagonal entries, so a row's pair products x_i x_j (i <= j) times
    ``gram`` are its squared distances <x x^T, I - P_m>.  ``bases`` is the
    (M, N, k) stack of member bases for single-vector residual scans.
    """

    def __init__(self, members: tuple[SubspaceBasis, ...]) -> None:
        n = members[0].ambient_dim
        self.upper = i, j = np.triu_indices(n)
        self.bases = np.stack([member.matrix for member in members])
        residual = np.eye(n) - self.bases @ self.bases.transpose(0, 2, 1)
        self.gram = np.ascontiguousarray((residual[:, i, j] * np.where(i == j, 1.0, 2.0)).T)
        self.width = self.gram.shape[1]

    def nearest(self, rows: np.ndarray) -> np.ndarray:
        i, j = self.upper
        squared = np.min((rows[:, i] * rows[:, j]) @ self.gram, axis=1)
        return np.sqrt(np.maximum(squared, 0.0))

    def distances(self, d: np.ndarray) -> np.ndarray:
        residual = d - (self.bases @ (d @ self.bases)[:, :, None])[:, :, 0]
        return np.sqrt(np.einsum("mn,mn->m", residual, residual))


class _DualLevel:
    """Polyhedral level table: the members' dual vertex tables side by side.

    ``vertices`` is (N, V); member m owns the columns from ``offsets[m]`` to
    the next offset, so its distances are the maxima over that segment.
    """

    def __init__(self, fidelity: NormSpec, members: tuple[SubspaceBasis, ...]) -> None:
        tables = [dual_vertices(fidelity, member) for member in members]
        self.offsets = np.cumsum([0] + [t.shape[0] for t in tables[:-1]])
        self.vertices = np.ascontiguousarray(np.vstack(tables).T)
        self.width = self.vertices.shape[1]

    def distances(self, x: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(x @ self.vertices, self.offsets, axis=-1)

    def nearest(self, rows: np.ndarray) -> np.ndarray:
        return np.min(self.distances(rows), axis=1)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one smallest-support solve.

    ``support`` is the lexicographically smallest atom subset attaining the
    optimum, ``coefficients`` its weights, and ``residual`` the fidelity
    norm of the approximation error (at most tau up to the feasibility
    slack).
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
    per dictionary, at the dictionary's own tolerance; a ``span_tol``
    argument other than that one raises ValueError.  The solver owns the
    relative slack on tau, ``feas_tol``, and the wlp descent tolerance,
    ``dist_tol``.  Each level k of 1..N gets one level table for the
    fidelity's norm family (``level_table``), which prices every size-k
    member in one product: a profile block takes each row's nearest
    member from it, and a solve takes the first member within tau from
    the residual form for l2 or the stacked dual tables for polyhedral
    fidelities.  Tables are built on first use in the calling thread, and
    ``distance_profiles`` builds all it needs before any worker starts;
    afterwards the solver is only read, so distinct data vectors may be
    solved concurrently.
    """

    def __init__(
        self,
        dictionary: Dictionary,
        fidelity: NormSpec,
        span_tol: float | None = None,
        feas_tol: float = DEFAULT_FEAS_TOL,
        dist_tol: float = DEFAULT_DIST_TOL,
    ) -> None:
        if span_tol not in (None, dictionary.span_tol):
            raise ValueError(f"span_tol {span_tol} is not the dictionary's {dictionary.span_tol}")
        if not (feas_tol >= 0 and dist_tol > 0):
            raise ValueError("tolerances must be positive (feas_tol may be zero)")
        self.dictionary = dictionary
        self.fidelity = fidelity
        self.feas_tol = feas_tol
        self.dist_tol = dist_tol
        self._levels: dict[int, _QuadraticLevel | _DualLevel | None] = {}

    def family(self, k: int) -> SpanFamily:
        return span_family(self.dictionary, k)

    def level_table(self, k: int) -> _QuadraticLevel | _DualLevel | None:
        """The size-k level table, or None where members are priced one at a time.

        That is level 0, whose one member is priced by the norm itself, and
        every level of a wlp fidelity with p > 1.
        """
        if k not in self._levels:
            members = self.family(k).members
            table = None
            if k > 0 and self.fidelity.kind == "l2":
                table = _QuadraticLevel(members)
            elif k > 0 and _is_polyhedral(self.fidelity):
                table = _DualLevel(self.fidelity, members)
            self._levels[k] = table
        return self._levels[k]

    def _check_data(self, d: np.ndarray, tau: float) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        if d.shape != (self.dictionary.n_dim,):
            raise ValueError(
                f"data has shape {d.shape}, expected ({self.dictionary.n_dim},)"
            )
        if not np.isfinite(d).all():
            raise ValueError(f"data must be finite, got {d.tolist()}")
        if not tau > 0.0:
            raise ValueError(f"tau must be > 0, got {tau}")
        return d

    def _first_feasible(self, k: int, d: np.ndarray, thresh: float) -> SubspaceBasis | None:
        """The size-k member of smallest provenance within thresh of d, if any.

        Members are in provenance order, so the first member the level
        table puts within thresh is the answer.  No linear program runs.
        """
        members = self.family(k).members
        table = self.level_table(k)
        if table is None:
            return next(
                (
                    m
                    for m in members
                    if subspace_distance(self.fidelity, m, d, self.dist_tol)[0] <= thresh
                ),
                None,
            )
        hits = np.flatnonzero(table.distances(d) <= thresh)
        return members[hits[0]] if hits.size else None

    def solve(self, d: np.ndarray, tau: float) -> SolveResult:
        """Smallest support within tau of d, and its lexicographically first witness.

        Only the winning span gets a closest point, from one
        ``subspace_distance`` call.
        """
        d = self._check_data(d, tau)
        thresh = tau * (1.0 + self.feas_tol)
        for k in range(self.dictionary.n_dim + 1):
            winner = self._first_feasible(k, d, thresh)
            if winner is None:
                continue
            _, point = subspace_distance(self.fidelity, winner, d, self.dist_tol)
            atoms = self.dictionary.subset(winner.provenance)
            coeffs = np.linalg.lstsq(atoms, point, rcond=None)[0]
            return SolveResult(
                value=k,
                support=winner.provenance,
                coefficients=coeffs,
                residual=float(norm_eval(self.fidelity, atoms @ coeffs - d)),
            )
        raise AssertionError("unreachable: the full-space span is always feasible")

    def value(self, d: np.ndarray, tau: float) -> int:
        return self.solve(d, tau).value

    def value_leq(self, d: np.ndarray, tau: float, K: int) -> bool:
        """True when some K atoms approximate d within tau.

        Only the size-K spans need checking: every smaller feasible span is
        contained in a size-K one, which is then feasible too.
        """
        d = self._check_data(d, tau)
        if not 0 <= K <= self.dictionary.n_dim:
            raise ValueError(f"K must lie in [0, {self.dictionary.n_dim}], got {K}")
        return self._first_feasible(K, d, tau * (1.0 + self.feas_tol)) is not None

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
        Level tables are built here, before any worker starts, and each
        block of rows prices a level with one product.
        """
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != self.dictionary.n_dim:
            raise ValueError(f"expected (n, {self.dictionary.n_dim}) data, got {data.shape}")
        n_dim = self.dictionary.n_dim
        tables = {k: self.level_table(k) for k in range(1, n_dim)}
        widest = max((t.width for t in tables.values() if t is not None), default=1)
        block = max(1, _PROFILE_CELLS // widest)
        n_blocks = max(1, -(-data.shape[0] // block))

        def profile_block(b: int) -> np.ndarray:
            rows = data[b * block : (b + 1) * block]
            out = np.empty((rows.shape[0], n_dim + 1))
            out[:, 0] = np.asarray(norm_eval(self.fidelity, rows))
            out[:, n_dim] = 0.0
            for k, table in tables.items():
                if table is not None:
                    out[:, k] = table.nearest(rows)
                    continue
                out[:, k] = np.min(
                    [
                        member_distances(self.fidelity, member, rows, self.dist_tol)
                        for member in self.family(k).members
                    ],
                    axis=0,
                )
            return out

        return np.vstack(map_chunks(profile_block, n_blocks, workers))


def values_from_profiles(
    profiles: np.ndarray, tau: float, feas_tol: float = DEFAULT_FEAS_TOL
) -> np.ndarray:
    """Smallest-support values for every profile row at tolerance tau."""
    thresh = tau * (1.0 + feas_tol)
    return np.argmax(profiles <= thresh, axis=1)


def solve_l0(
    dictionary: Dictionary,
    fidelity: NormSpec,
    d: np.ndarray,
    tau: float,
    *,
    feas_tol: float = DEFAULT_FEAS_TOL,
    dist_tol: float = DEFAULT_DIST_TOL,
) -> SolveResult:
    return L0Solver(dictionary, fidelity, feas_tol=feas_tol, dist_tol=dist_tol).solve(d, tau)

