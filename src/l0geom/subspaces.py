"""Dictionaries, orthonormal subspace bases, and span-family enumeration.

A dictionary is a finite list of nonzero vectors spanning R^N.  For each
size K this module enumerates the distinct K-dimensional spans of
K-element subsets, the rank-K flats of the dictionary's matroid, keeping
the lexicographically smallest index subset of each.  One rank rule,
``_rank`` at the dictionary's span_tol, decides every span question: an
atom lies in a span's flat, and two K-spans coincide, when the stacked
columns keep rank K.  Pairs of distinct members are indexed by the
dimension of their intersection, which drives the overlap corrections;
``pair_dims`` finds them all with one rank per distinct union of two
members' atoms.

A ``SpanFamily`` is one stack of its members' bases, provenance subsets
and complements (one SVD, on first read), which the pair pass, the
constants and the solver's level tables all read; member ``SubspaceBasis``
objects are built only for a caller that asks for them.

Every span question stacks two orthonormal bases A and B, and [A | B]
has the singular values sqrt(1 +- c_l) for c_l the cosines of their
principal angles, plus ones (Bjorck & Golub, Math. Comp. 27, 1973).  So
``_joint_rank`` applies ``_rank`` to those values, through the sines, with
no SVD of [A | B]; the sines come from one projection product (an atom's
residual off a span, or C^T B for C the complement of A).  ``_rank`` on
computed singular values remains only where a basis is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from . import sizes

DEFAULT_SPAN_TOL = 1e-9

# Upper-triangle entries per row block of the pair pass, and entries per
# block of its union ranks' products: they bound the arrays held at once.
_PAIR_BLOCK = 1 << 18

# Largest |G - I| entry, for G the Gram matrix of a basis's columns.
_ORTHONORMAL_ATOL = 1e-10


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
        _check_orthonormal(m[None])
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
        return SubspaceBasis(_complements(self.matrix[None])[0])


def _check_orthonormal(stack: np.ndarray) -> None:
    """Raise unless every (N, k) matrix of the stack has orthonormal columns
    within ``_ORTHONORMAL_ATOL``: one batched Gram comparison."""
    gram = stack.transpose(0, 2, 1) @ stack
    if gram.size and not np.allclose(gram, np.eye(stack.shape[2]), atol=_ORTHONORMAL_ATOL):
        raise ValueError(f"basis columns are not orthonormal within {_ORTHONORMAL_ATOL}")


def _left_singular(m: np.ndarray, full_matrices: bool) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and singular values of m, or of a stack of matrices.

    Some LAPACK builds' divide-and-conquer SVD fails to converge on small,
    well-conditioned integer matrices; the SVD of the transpose is the same
    factorisation with the factors swapped, so it serves as the retry, for
    the whole stack at once.  That suits a stack whose members are always
    the same, as ``enumerate_spans`` builds from a dictionary: its members'
    bits still depend on that stack alone.  Stacks cut by a budget or a
    block size go through ``_complements``, whose retry is member by member.
    """
    try:
        u, s, _ = np.linalg.svd(m, full_matrices=full_matrices)
    except np.linalg.LinAlgError:
        _, s, ut = np.linalg.svd(m.swapaxes(-1, -2), full_matrices=full_matrices)
        u = ut.swapaxes(-1, -2)
    return u, s


def _complements(bases: np.ndarray) -> np.ndarray:
    """(M, N, N - K) orthonormal complements of an (M, N, K) stack of bases.

    One stacked SVD gives each member the bits its own SVD gives.  Callers
    cut their stacks by budgets and block sizes, so a member's bits must not
    depend on the stack it came in: where the stack fails to converge, each
    member is retried alone through ``_left_singular`` (transposed only if
    it fails alone too), and gets the bits it gets alone.
    """
    count, n, k = bases.shape
    if k == 0:
        return np.repeat(np.eye(n)[None], count, axis=0)
    try:
        u = np.linalg.svd(bases, full_matrices=True)[0]
    except np.linalg.LinAlgError:
        u = np.stack([_left_singular(basis, full_matrices=True)[0] for basis in bases])
    return u[..., k:]


def _rank(s: np.ndarray, tol: float) -> np.ndarray:
    """Numerical rank from singular values sorted in descending order along
    the last axis: how many exceed tol times the largest."""
    return np.sum(s > tol * s[..., :1], axis=-1)


def _joint_rank(sines: np.ndarray, extra: int, tol: float) -> np.ndarray:
    """rank [A | B] by the ``_rank`` rule at tol, with no SVD of [A | B].

    A and B have orthonormal columns; ``sines`` (..., p) holds the sines of
    their p = min(dim A, dim B) principal angles, and ``extra`` is
    |dim A - dim B|.  With c_l the cosines, [A | B] has the singular values
    sqrt(1 + c_l), sqrt(1 - c_l) and ``extra`` ones (Bjorck & Golub, Math.
    Comp. 27, 1973), the largest sqrt(1 + c_max).  sqrt(1 - c_l) is
    sin_l / sqrt(1 + c_l), so the small ones are tested as
    sin_l > tol * sqrt((1 + c_l)(1 + c_max)): as accurate as the sines,
    with no cancellation in 1 - c_l.  In exact arithmetic this is ``_rank``
    of the singular values of [A | B].
    """
    cosines = np.sqrt(1.0 - np.minimum(sines, 1.0) ** 2)
    cut = tol * np.sqrt(1.0 + cosines.max(axis=-1, initial=0.0))
    grow = np.sqrt(1.0 + cosines)
    return (
        np.sum(grow > cut[..., None], axis=-1)
        + np.sum(sines > cut[..., None] * grow, axis=-1)
        + extra * (cut < 1.0)
    )


def _sines(complement: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Sines of the principal angles between span A and span B, dim A >= dim B,
    along the last axis: the singular values of C^T B for C an orthonormal
    complement of A, padded with zeros to dim B (the angles of the
    intersection that C^T B, with fewer rows than dim B, leaves out)."""
    product = complement.swapaxes(-1, -2) @ other
    sines = np.zeros(product.shape[:-2] + other.shape[-1:])
    q = min(product.shape[-2:])
    if q:
        sines[..., :q] = np.linalg.svd(product, compute_uv=False)
    return sines


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
    """dim(span a  intersect  span b) = dim a + dim b - rank [A | B].

    The rank is the ``_rank`` rule at tol in its projection form,
    ``_joint_rank`` of the sines of C^T B, C the complement of the larger
    span.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("bases live in different ambient dimensions")
    if a.dim == 0 or b.dim == 0:
        return 0
    if a.dim < b.dim:
        a, b = b, a
    sines = _sines(a.complement().matrix, b.matrix)
    return a.dim + b.dim - int(_joint_rank(sines, a.dim - b.dim, tol))


def intersection_basis(
    a: SubspaceBasis, b: SubspaceBasis, tol: float = DEFAULT_SPAN_TOL
) -> SubspaceBasis:
    """Orthonormal basis of the intersection of the two spans: the k
    principal directions of span a closest to span b, k = ``intersection_dim``.
    """
    k = intersection_dim(a, b, tol)
    if k == 0:
        return empty_basis(a.ambient_dim)
    return SubspaceBasis(meet_matrices(a.matrix[None], b.matrix[None], k)[0])


def meet_matrices(first: np.ndarray, second: np.ndarray, k: int) -> np.ndarray:
    """Intersection bases of stacks of (N, K) basis matrices known to meet
    in dimension k >= 1, from one stacked SVD; each (N, k) result has the
    bits that ``intersection_basis`` gives its pair alone."""
    u = np.linalg.svd(first.transpose(0, 2, 1) @ second)[0]
    return first @ u[:, :, :k]


@dataclass(frozen=True, eq=False)
class SpanFamily:
    """All distinct K-dimensional dictionary spans, one representative each.

    ``bases`` (M, N, K) stacks the members' orthonormal bases, and row i of
    ``provenances`` (M, K) is member i's smallest generating index subset,
    in lexicographic order (no columns for a lone non-dictionary subspace).
    ``complements`` (M, N, N - K), their ``_complements``, is computed on
    first read and kept; ``members``, the ``SubspaceBasis`` views of the
    stack, only when read.  ``span_tol`` is the dictionary's tolerance,
    and ``_pair_dims`` memoises the ``pair_dims`` matrix.
    """

    K: int
    ambient_dim: int
    span_tol: float
    bases: np.ndarray
    provenances: np.ndarray
    _pair_dims: np.ndarray | None = field(default=None, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.bases)

    @cached_property
    def complements(self) -> np.ndarray:
        return _complements(self.bases)

    @cached_property
    def members(self) -> tuple[SubspaceBasis, ...]:
        members = tuple(object.__new__(SubspaceBasis) for _ in range(len(self)))
        for basis, matrix, atoms in zip(members, self.bases, self.provenances.tolist()):
            basis.__dict__.update(matrix=matrix, provenance=tuple(atoms))  # checked as a stack
        return members


def check_level(K: int | None, n: int) -> None:
    """ValueError unless K is a level of R^n: 0 <= K <= n."""
    if K is None or not 0 <= K <= n:
        raise ValueError(f"K must lie in [0, {n}], got {K}")


def _indices(n: int, r: int) -> np.ndarray:
    """All r-element subsets of range(n), one per row, in lexicographic order."""
    subsets = list(combinations(range(n), r))
    return np.array(subsets, dtype=int).reshape(len(subsets), r)


def _first_rows(keys: np.ndarray) -> np.ndarray:
    """Indices, in order, of the first occurrence of each distinct row of keys."""
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    return np.sort(order[first])


def _closures(bases: np.ndarray, unit: np.ndarray, tol: float) -> np.ndarray:
    """(S, m) closure marks of an (S, N, K) stack of bases against the unit
    atoms, the columns of ``unit``: rank [U | a] = K by ``_joint_rank`` at
    tol, whose one sine is the residual |a - U U^T a|.  One projection
    product per block of subsets, 512 KiB of residuals."""
    n, K = bases.shape[1:]
    block = max(1, (1 << 16) // (unit.shape[1] * n))
    closures = np.empty((len(bases), unit.shape[1]), dtype=bool)
    for lo in range(0, len(bases), block):
        chunk = bases[lo : lo + block]
        residual = unit - chunk @ (chunk.transpose(0, 2, 1) @ unit)
        sines = np.sqrt(np.sum(residual * residual, axis=1))
        closures[lo : lo + block] = _joint_rank(sines[..., None], K - 1, tol) == K
    return closures


def enumerate_spans(dictionary: Dictionary, K: int) -> SpanFamily:
    """Distinct spans of K-element dictionary subsets, at the dictionary's span_tol.

    Rank-deficient subsets are skipped: their spans already appear at a
    smaller size.  For K = 0 the family is the zero-dimensional span and for
    K = N the whole space, whose provenance is the first full-rank subset.
    For 0 < K < N one stacked SVD gives every subset's basis and rank; a
    full-rank subset S is keyed by its closure, the atoms a with
    rank [U_S | a/|a|] = K, and the first subset of each closure is kept,
    the lexicographically smallest basis of its flat.  The closure ranks
    come from projections (``_closures``), not from SVDs of [U_S | a]: the
    residual r of a/|a| off span U_S and c = |U_S^T a|/|a| give
    [U_S | a/|a|] the singular values sqrt(1 + c), sqrt(1 - c) and K - 1
    ones, so the ``_rank`` rule keeps rank K exactly when
    r <= span_tol * (1 + c).
    """
    n, tol = dictionary.n_dim, dictionary.span_tol
    check_level(K, n)
    if K == 0:
        bases, subsets = np.zeros((1, n, 0)), np.zeros((1, 0), dtype=int)
    elif K == n:
        bases, subsets = np.zeros((0, n, n)), np.zeros((0, n), dtype=int)
        for subset in combinations(range(dictionary.n_atoms), n):
            u, s = _left_singular(dictionary.subset(subset), full_matrices=False)
            if _rank(s, tol) == n:
                bases, subsets = u[None], np.array([subset])
                break
    else:
        sizes.span_subsets(dictionary.n_atoms, K)
        subsets = _indices(dictionary.n_atoms, K)
        u, s = _left_singular(np.moveaxis(dictionary.atoms[:, subsets], 1, 0), full_matrices=False)
        full = _rank(s, tol) == K
        bases, subsets = u[full], subsets[full]
        unit = dictionary.atoms / np.linalg.norm(dictionary.atoms, axis=0)
        kept = _first_rows(np.packbits(_closures(bases, unit, tol), axis=1))
        bases, subsets = bases[kept], subsets[kept]
    _check_orthonormal(bases)
    return SpanFamily(K, n, tol, bases, subsets)


def _atom_words(subsets: np.ndarray, n_atoms: int) -> np.ndarray:
    """(len(subsets), W) little-endian uint64 words, W = ceil(n_atoms / 64),
    holding each index subset as a bitmask: bit a is set when atom a is in it."""
    marks = np.zeros((len(subsets), 64 * -(-n_atoms // 64)), dtype=bool)
    marks[np.arange(len(subsets))[:, None], subsets] = True
    return np.packbits(marks, axis=1, bitorder="little").view("<u8")


def _upper_blocks(size: int) -> Iterator[tuple[int, np.ndarray]]:
    """The strict upper triangle of the (M, M) pair matrix in row blocks of
    about ``_PAIR_BLOCK`` entries, in row-major order.  Each block is
    (lo, upper): rows lo:lo + len(upper) against columns lo:, ``upper``
    marking the entries with j > i."""
    lo = 0
    while lo < size - 1:
        hi = min(size, lo + max(1, _PAIR_BLOCK // (size - lo)))
        yield lo, np.triu(np.ones((hi - lo, size - lo), dtype=bool), 1)
        lo = hi


def _union_keys(words: np.ndarray, lo: int, upper: np.ndarray) -> np.ndarray:
    """One sortable key per marked entry of an ``_upper_blocks`` block: the
    bytes of the OR of the two members' (M, W) bitmask ``words``."""
    unions = (words[lo : lo + len(upper), None] | words[None, lo:])[upper]
    return unions.view(np.dtype((np.void, unions.itemsize * unions.shape[1])))[:, 0]


def _pair_ranks(
    complements: np.ndarray, bases: np.ndarray, pairs: np.ndarray, tol: float
) -> np.ndarray:
    """Rank of [U_i | U_j] for each row (i, j) of ``pairs``, U the (M, N, K)
    stack of member bases and C their ``_complements``, by ``_joint_rank``
    at tol on the sines of C_i^T U_j: (N - K, K) products in blocks of at
    most ``_PAIR_BLOCK`` entries."""
    n, k = bases.shape[1:]
    ranks = np.empty(len(pairs), dtype=np.int16)
    step = max(1, _PAIR_BLOCK // (n * k))
    for lo in range(0, len(pairs), step):
        first, second = pairs[lo : lo + step].T
        sines = _sines(complements[first], bases[second])
        ranks[lo : lo + step] = _joint_rank(sines, 0, tol)
    return ranks


def pair_dims(family: SpanFamily) -> np.ndarray:
    """(M, M) matrix of intersection dimensions between the family's members.

    The diagonal holds K.  Off it, entry (i, j) is 2K - rank [U_i | U_j],
    by the ``_rank`` rule at the family's span_tol, for U_i and U_j the two
    members' bases, as in ``intersection_dim``.  The rank is taken in its
    projection form (``_pair_ranks``): with sigma_l the singular values of
    C_i^T U_j, C_i the complement of U_i, which are the sines of the
    principal angles, and c_l = sqrt(1 - sigma_l^2) their cosines, it is
    K + #{l : sigma_l > span_tol * sqrt((1 + c_l)(1 + c_max))}, which is
    ``_rank`` of the singular values sqrt(1 +- c_l) of [U_i | U_j] in exact
    arithmetic; an (N - K, K) SVD replaces an (N, 2K) one.  That rank is
    the dimension of V_i + V_j = span(S_i u S_j), for S_i and S_j the
    members' provenance subsets, so it is taken once per distinct union:
    each member is keyed by the bitmask of its provenance, each pair by the
    OR of the two, and each distinct union is ranked at its first pair in
    row-major order (``_pair_ranks``).  A pair that shares its union with an
    earlier one takes that pair's rank.  In exact arithmetic the two ranks
    agree; in floating point they differ when one pair's smallest nonzero
    singular value falls under span_tol and the other's does not, as for
    planes whose atoms are 1e-5 radians apart at span_tol 1e-9, where
    products of two such angles appear.  The upper triangle is walked in row
    blocks twice, to collect the distinct unions and then to scatter their
    dimensions, so that beyond the int16 matrix the memory is
    O(``_PAIR_BLOCK``) plus the distinct unions.  At K = 1 the members are
    distinct single atoms, so every pair is its own union's first pair: each
    block's pairs are ranked directly, with no union keys.  The read-only
    matrix is computed once and memoised on the family.  Two members meeting
    in dimension K are one span counted twice: a ValueError names both
    provenances.
    """
    if family._pair_dims is None:
        size, k = len(family), family.K
        dims = np.full((size, size), k, dtype=np.int16)
        if k > 0 and size > 1:
            bases, subsets = family.bases, family.provenances
            complements, tol = family.complements, family.span_tol
            if k > 1:
                words = _atom_words(subsets, int(subsets.max()) + 1)
                keys, firsts = [], []
                for lo, upper in _upper_blocks(size):
                    block_keys, at = np.unique(_union_keys(words, lo, upper), return_index=True)
                    keys.append(block_keys)
                    firsts.append(lo + np.argwhere(upper)[at])
                distinct, at = np.unique(np.concatenate(keys), return_index=True)
                ranks = _pair_ranks(complements, bases, np.concatenate(firsts)[at], tol)
            for lo, upper in _upper_blocks(size):
                if k == 1:  # every pair is its own union's first pair
                    rank = _pair_ranks(complements, bases, lo + np.argwhere(upper), tol)
                else:
                    rank = ranks[np.searchsorted(distinct, _union_keys(words, lo, upper))]
                same = np.flatnonzero(rank <= k)
                if same.size:
                    rows, cols = np.nonzero(upper)
                    first, second = (tuple(subsets[lo + a[same[0]]].tolist()) for a in (rows, cols))
                    raise ValueError(
                        f"members {first} and {second} have one span "
                        f"at span_tol {family.span_tol}"
                    )
                block = np.full(upper.shape, k, dtype=np.int16)
                block[upper] = 2 * k - rank
                hi = lo + len(block)
                dims[lo:hi, lo:] = block
                np.minimum(dims[lo:, lo:hi], block.T, out=dims[lo:, lo:hi])
        dims.flags.writeable = False
        object.__setattr__(family, "_pair_dims", dims)
    return family._pair_dims


def enumerate_pairs(family: SpanFamily, k: int) -> np.ndarray:
    """(P, 2) array of the ordered pairs (i, j), i != j, of members whose
    spans meet in dimension k.

    Pairs come in row-major order.  Empty, of shape (0, 2), whenever k is
    not attainable, in particular for k = K, for any k below
    max(0, 2K - N) and for families with fewer than two members.  The
    dimensions come from the family's memoised ``pair_dims`` matrix, so
    calls at every k share one rank pass.
    """
    if not 0 <= k <= family.K:
        raise ValueError(f"k must lie in [0, {family.K}], got {k}")
    if k == family.K:  # off the diagonal, pair_dims holds dimensions below K
        return np.empty((0, 2), dtype=np.intp)
    return np.argwhere(pair_dims(family) == k)
