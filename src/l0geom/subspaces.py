"""Dictionaries, orthonormal subspace bases, and span-family enumeration.

A dictionary is a finite list of nonzero vectors spanning R^N.  For each
size K this module enumerates the distinct K-dimensional spans of
K-element subsets, the rank-K flats of the dictionary's matroid, keeping
the lexicographically smallest index subset of each.  One rank rule,
``_rank`` at the dictionary's span_tol, decides every span question: an
atom lies in a span's flat, and two K-spans coincide, when the stacked
columns keep rank K.  Pairs of distinct members are indexed by the
dimension of their intersection, which drives the overlap corrections;
``pair_dims`` finds them all in one batched rank pass per family.

Enumeration refuses, before it starts, families with 0 < K < N whose
C(m, K) subset count exceeds ``MAX_SPAN_SUBSETS``: the pair pass grows
with the square of the family size.  The K = N family is the whole space
and is not capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Iterable, Sequence

import numpy as np

DEFAULT_SPAN_TOL = 1e-9

# Largest C(m, K) that enumerate_spans accepts.  It guards the quadratic
# pair pass alone: N=8, m=16, K=4 has 1,820 members and takes about 17 s.
MAX_SPAN_SUBSETS = 5_000


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal basis of a subspace of R^N, possibly zero-dimensional.

    ``matrix`` has shape (N, dim) with orthonormal columns; ``provenance``
    records the dictionary indices the span came from (empty for bases not
    derived from a dictionary subset).  Equality is identity; whether two
    bases span the same subspace is ``spans_equal``.
    """

    matrix: np.ndarray
    provenance: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"basis matrix must be 2-d, got shape {m.shape}")
        if m.shape[1] > m.shape[0]:
            raise ValueError(f"basis has more columns than ambient dimensions: {m.shape}")
        gram = m.T @ m
        if gram.size and not np.allclose(gram, np.eye(m.shape[1]), atol=1e-10):
            raise ValueError("basis columns are not orthonormal within 1e-10")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "provenance", tuple(int(i) for i in self.provenance))

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def projector(self) -> np.ndarray:
        return self.matrix @ self.matrix.T

    def complement(self) -> "SubspaceBasis":
        """Orthonormal basis of the orthogonal complement."""
        n, k = self.matrix.shape
        if k == 0:
            return SubspaceBasis(np.eye(n))
        u, _ = _left_singular(self.matrix, full_matrices=True)
        return SubspaceBasis(u[:, k:])


def _left_singular(m: np.ndarray, full_matrices: bool) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and singular values of m, or of a stack of matrices.

    Some LAPACK builds' divide-and-conquer SVD fails to converge on small,
    well-conditioned integer matrices; the SVD of the transpose is the same
    factorisation with the factors swapped, so it serves as the retry.
    """
    try:
        u, s, _ = np.linalg.svd(m, full_matrices=full_matrices)
    except np.linalg.LinAlgError:
        _, s, ut = np.linalg.svd(m.swapaxes(-1, -2), full_matrices=full_matrices)
        u = ut.swapaxes(-1, -2)
    return u, s


def _rank(s: np.ndarray, tol: float) -> np.ndarray:
    """Numerical rank from singular values sorted in descending order along
    the last axis: how many exceed tol times the largest."""
    return np.sum(s > tol * s[..., :1], axis=-1)


def empty_basis(ambient_dim: int) -> SubspaceBasis:
    return SubspaceBasis(np.zeros((ambient_dim, 0)))


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Finite spanning set of R^N, atoms stored as the columns of ``atoms``.

    ``span_tol`` is the relative rank tolerance of the spanning check and
    of every span family, pair dimension and overlap intersection derived
    from the dictionary.  ``_families`` memoises the span families by K;
    ``solver.span_family`` fills it.  ``_volumes`` memoises the exact shadow
    and slice volumes of the dictionary's subspaces, keyed by kind, norm
    and subspace; ``bounds.assemble_constants`` fills it.  Equality is
    identity.
    """

    atoms: np.ndarray
    span_tol: float = DEFAULT_SPAN_TOL
    _families: dict[int, "SpanFamily"] = field(default_factory=dict, init=False, repr=False)
    _volumes: dict[tuple, Any] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.span_tol > 0:
            raise ValueError(f"span_tol must be positive, got {self.span_tol!r}")
        a = np.asarray(self.atoms, dtype=float)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"atom matrix must be (N, m) with N, m >= 1, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("atoms must be finite")
        lengths = np.linalg.norm(a, axis=0)
        scale = lengths.max()
        if scale == 0.0 or np.any(lengths <= self.span_tol * scale):
            raise ValueError("dictionary contains a zero atom")
        rank = int(_rank(np.linalg.svd(a, compute_uv=False), self.span_tol))
        if rank < a.shape[0]:
            raise ValueError(
                f"dictionary does not span R^{a.shape[0]} (numerical rank {rank})"
            )
        object.__setattr__(self, "atoms", a)

    @staticmethod
    def from_vectors(
        vectors: Iterable[Sequence[float]], span_tol: float = DEFAULT_SPAN_TOL
    ) -> "Dictionary":
        arr = np.asarray(list(vectors), dtype=float)
        if arr.ndim != 2:
            raise ValueError("expected a list of equal-length vectors")
        return Dictionary(atoms=arr.T, span_tol=span_tol)

    @staticmethod
    def from_dict(obj: dict[str, Any], span_tol: float = DEFAULT_SPAN_TOL) -> "Dictionary":
        """Parse the JSON form {"dictionary": [[...], ...]} (one vector per row)."""
        if not isinstance(obj, dict) or "dictionary" not in obj:
            raise ValueError("expected an object with a 'dictionary' field")
        return Dictionary.from_vectors(obj["dictionary"], span_tol=span_tol)

    def to_dict(self) -> dict[str, Any]:
        return {"dictionary": self.atoms.T.tolist()}

    @property
    def n_dim(self) -> int:
        return self.atoms.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]

    def subset(self, indices: Sequence[int]) -> np.ndarray:
        return self.atoms[:, list(indices)]


def orthonormal_basis(
    vectors: Iterable[Sequence[float]] | np.ndarray,
    tol: float = DEFAULT_SPAN_TOL,
    provenance: tuple[int, ...] = (),
) -> SubspaceBasis:
    """Orthonormal basis of the span of the given vectors (one per row).

    Near-dependent directions are dropped: the dimension is the numerical
    rank at relative tolerance ``tol``.
    """
    arr = np.asarray(list(vectors) if not isinstance(vectors, np.ndarray) else vectors, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d stack of vectors, got shape {arr.shape}")
    m = arr.T  # columns spanning the subspace
    if m.shape[1] == 0:
        return empty_basis(m.shape[0])
    u, s = _left_singular(m, full_matrices=False)
    if s[0] == 0.0:
        return empty_basis(m.shape[0])
    return SubspaceBasis(u[:, : int(_rank(s, tol))], provenance=provenance)


def spans_equal(a: SubspaceBasis, b: SubspaceBasis, tol: float = DEFAULT_SPAN_TOL) -> bool:
    """True when the two spans coincide: equal dimensions that their
    intersection attains, by the rank rule of ``intersection_dim``."""
    return intersection_dim(a, b, tol) == a.dim == b.dim


def intersection_dim(a: SubspaceBasis, b: SubspaceBasis, tol: float = DEFAULT_SPAN_TOL) -> int:
    """dim(span a  intersect  span b) = dim a + dim b - rank [A | B]."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("bases live in different ambient dimensions")
    if a.dim == 0 or b.dim == 0:
        return 0
    stacked = np.hstack([a.matrix, b.matrix])
    return a.dim + b.dim - int(_rank(np.linalg.svd(stacked, compute_uv=False), tol))


def intersection_basis(
    a: SubspaceBasis, b: SubspaceBasis, tol: float = DEFAULT_SPAN_TOL
) -> SubspaceBasis:
    """Orthonormal basis of the intersection of the two spans.

    The dimension always matches ``intersection_dim``; the basis is
    ``meet_basis`` at that dimension.
    """
    return meet_basis(a, b, intersection_dim(a, b, tol))


def meet_basis(a: SubspaceBasis, b: SubspaceBasis, k: int) -> SubspaceBasis:
    """Orthonormal basis of the intersection of two spans known to meet in
    dimension k: the k principal directions of span a closest to span b."""
    if k == 0:
        return empty_basis(a.ambient_dim)
    return SubspaceBasis(meet_matrices(a.matrix[None], b.matrix[None], k)[0])


def meet_matrices(first: np.ndarray, second: np.ndarray, k: int) -> np.ndarray:
    """``meet_basis`` for stacks of (N, K) basis matrices known to meet in
    dimension k >= 1, from one stacked SVD; each (N, k) result has the bits
    that ``meet_basis`` gives its pair alone."""
    u = np.linalg.svd(first.transpose(0, 2, 1) @ second)[0]
    return first @ u[:, :, :k]


@dataclass(frozen=True, eq=False)
class SpanFamily:
    """All distinct K-dimensional dictionary spans, one representative each.

    Members are ordered by their provenance subsets (lexicographically);
    each provenance is the smallest index subset generating that span.
    ``span_tol`` is the tolerance of the dictionary the family came from,
    and ``_pair_dims`` memoises its ``pair_dims`` matrix.
    """

    K: int
    ambient_dim: int
    span_tol: float
    members: tuple[SubspaceBasis, ...] = field(default_factory=tuple)
    _pair_dims: np.ndarray | None = field(default=None, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.members)


def enumerate_spans(dictionary: Dictionary, K: int) -> SpanFamily:
    """Distinct spans of K-element dictionary subsets, at the dictionary's span_tol.

    Rank-deficient subsets are skipped: their spans already appear at a
    smaller size.  For K = 0 the family is the zero-dimensional span and for
    K = N the whole space, whose provenance is the first full-rank subset.
    For 0 < K < N one stacked SVD gives every subset's basis and rank; a
    full-rank subset S is keyed by its closure, the atoms a with
    rank [U_S | a/|a|] = K, and the first subset of each closure is kept,
    the lexicographically smallest basis of its flat.  A ValueError is
    raised up front when C(n_atoms, K) exceeds ``MAX_SPAN_SUBSETS``.
    """
    n, tol = dictionary.n_dim, dictionary.span_tol
    if not 0 <= K <= n:
        raise ValueError(f"K must lie in [0, {n}], got {K}")
    if K == 0:
        return SpanFamily(K=0, ambient_dim=n, span_tol=tol, members=(empty_basis(n),))
    if K == n:
        for subset in combinations(range(dictionary.n_atoms), n):
            basis = orthonormal_basis(dictionary.subset(subset).T, tol=tol, provenance=subset)
            if basis.dim == n:
                return SpanFamily(K=n, ambient_dim=n, span_tol=tol, members=(basis,))
        return SpanFamily(K=n, ambient_dim=n, span_tol=tol)
    m = dictionary.n_atoms
    count = math.comb(m, K)
    if count > MAX_SPAN_SUBSETS:
        raise ValueError(
            f"span family of m={m} atoms at K={K} needs C({m}, {K}) = {count} "
            f"subsets, above the cap of {MAX_SPAN_SUBSETS}"
        )
    subsets = np.array(list(combinations(range(m), K)))
    u, s = _left_singular(np.moveaxis(dictionary.atoms[:, subsets], 1, 0), full_matrices=False)
    full = _rank(s, tol) == K
    bases, subsets = u[full], subsets[full]
    unit = (dictionary.atoms / np.linalg.norm(dictionary.atoms, axis=0)).T
    block = max(1, (1 << 16) // (m * n * (K + 1)))  # 512 KiB stacks of [U_S | a]
    closures = []
    for chunk in np.split(bases, range(block, len(bases), block)):
        stacked = np.empty((len(chunk), m, n, K + 1))
        stacked[..., :K], stacked[..., K] = chunk[:, None], unit
        closures.append(_rank(np.linalg.svd(stacked, compute_uv=False), tol) == K)
    _, first = np.unique(np.concatenate(closures), axis=0, return_index=True)
    members = tuple(SubspaceBasis(bases[i], provenance=subsets[i]) for i in np.sort(first))
    return SpanFamily(K=K, ambient_dim=n, span_tol=tol, members=members)


def pair_dims(family: SpanFamily) -> np.ndarray:
    """(M, M) matrix of intersection dimensions between the family's members.

    Entry (i, j) equals ``intersection_dim(members[i], members[j],
    family.span_tol)``; the diagonal holds K.  Row i stacks member i against
    every later member and takes all their singular values in one batched
    SVD, with the rank rule of ``intersection_dim``, so memory stays
    O(M N K) rather than O(M^2 N K).  The read-only matrix is computed once
    and memoised on the family.  Two members meeting in dimension K are one
    span counted twice: a ValueError names both provenances.
    """
    if family._pair_dims is None:
        size, k = len(family.members), family.K
        dims = np.full((size, size), k, dtype=np.int16)
        if k > 0 and size > 1:
            bases = np.stack([member.matrix for member in family.members])
            for i in range(size - 1):
                later = bases[i + 1 :]
                stacked = np.concatenate(
                    [np.broadcast_to(bases[i], later.shape), later], axis=2
                )
                rank = _rank(np.linalg.svd(stacked, compute_uv=False), family.span_tol)
                same = np.flatnonzero(rank == k)
                if same.size:
                    raise ValueError(
                        f"members {family.members[i].provenance} and "
                        f"{family.members[i + 1 + same[0]].provenance} have one span "
                        f"at span_tol {family.span_tol}"
                    )
                dims[i, i + 1 :] = dims[i + 1 :, i] = 2 * k - rank
        dims.flags.writeable = False
        object.__setattr__(family, "_pair_dims", dims)
    return family._pair_dims


def enumerate_pairs(family: SpanFamily, k: int) -> tuple[tuple[int, int], ...]:
    """Ordered pairs (i, j), i != j, of members whose spans meet in dimension k.

    Pairs come in row-major order.  Empty whenever k is not attainable, in
    particular for any k below max(0, 2K - N) and for families with fewer
    than two members.  The dimensions come from the family's memoised
    ``pair_dims`` matrix, so calls at every k share one rank pass.
    """
    if not 0 <= k <= family.K:
        raise ValueError(f"k must lie in [0, {family.K}], got {k}")
    hits = pair_dims(family) == k
    np.fill_diagonal(hits, False)
    return tuple((int(i), int(j)) for i, j in zip(*np.nonzero(hits)))
