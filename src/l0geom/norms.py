"""Norm menu, comparison constants, and unit-ball volumes.

Two norms drive everything downstream: a fidelity norm measuring the
approximation residual and a data norm whose level set carries the sampling
and volume computations.  Both are drawn from a fixed menu:

    l1    sum_i |x_i|
    l2    Euclidean
    linf  max_i |x_i|
    wlp   (sum_i (w_i |x_i|)^p)^(1/p),  p >= 1, weights w_i > 0

The menu is closed under everything the rest of the package needs: exact
evaluation, explicit pairwise comparison constants, and closed-form
unit-ball volumes.  l1, linf and wlp with p = 1 have polytope unit balls,
so every shadow and slice of theirs is a polytope, and
``polytope_volume`` prices it exactly.  ``hit_or_miss_volume`` estimates
the shadows and slices of wlp balls with p > 1, the only ones left
without an exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from . import sizes, streams

_KINDS = ("l1", "l2", "linf", "wlp")

# A point lies on a facet of polytope_volume's polytope when its facet
# product is within this of 1.
_ON_FACET = 1e-10


@dataclass(frozen=True)
class NormSpec:
    """Immutable description of one norm from the menu.

    ``p`` and ``weights`` are meaningful only for kind ``wlp``; the plain
    kinds carry None in both slots.
    """

    kind: str
    p: float | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}, expected one of {_KINDS}")
        if self.kind == "wlp":
            if self.p is None or self.weights is None:
                raise ValueError("wlp norm requires both p and weights")
            p = float(self.p)
            if not math.isfinite(p) or p < 1.0:
                raise ValueError(f"wlp exponent must be finite and >= 1, got {self.p}")
            w = tuple(float(v) for v in self.weights)
            if len(w) == 0:
                raise ValueError("wlp weights must be nonempty")
            if any(not math.isfinite(v) or v <= 0.0 for v in w):
                raise ValueError("wlp weights must be finite and strictly positive")
            object.__setattr__(self, "p", p)
            object.__setattr__(self, "weights", w)
        else:
            if self.p is not None or self.weights is not None:
                raise ValueError(f"kind {self.kind!r} takes neither p nor weights")

    @property
    def polyhedral(self) -> bool:
        """True for the norms with a polytope unit ball: l1, linf, wlp with p = 1."""
        return self.kind in ("l1", "linf") or (self.kind == "wlp" and self.p == 1.0)

    @staticmethod
    def l1() -> "NormSpec":
        return NormSpec("l1")

    @staticmethod
    def l2() -> "NormSpec":
        return NormSpec("l2")

    @staticmethod
    def linf() -> "NormSpec":
        return NormSpec("linf")

    @staticmethod
    def weighted_lp(p: float, weights: Sequence[float]) -> "NormSpec":
        return NormSpec("wlp", p=p, weights=tuple(weights))

    @staticmethod
    def from_dict(obj: dict[str, Any]) -> "NormSpec":
        """Parse the JSON form {"kind": ..., "p": ..., "weights": [...]}."""
        if not isinstance(obj, dict):
            raise ValueError(f"norm spec must be an object, got {type(obj).__name__}")
        kind = obj.get("kind")
        if kind not in _KINDS:
            raise ValueError(f"norm spec kind must be one of {_KINDS}, got {kind!r}")
        extra = set(obj) - {"kind", "p", "weights"}
        if extra:
            raise ValueError(f"norm spec has unknown fields: {sorted(extra)}")
        if kind == "wlp":
            if "p" not in obj or "weights" not in obj:
                raise ValueError("wlp norm spec requires 'p' and 'weights'")
            return NormSpec("wlp", p=obj["p"], weights=tuple(obj["weights"]))
        if "p" in obj or "weights" in obj:
            raise ValueError(f"norm spec of kind {kind!r} takes neither 'p' nor 'weights'")
        return NormSpec(kind)

    def to_dict(self) -> dict[str, Any]:
        if self.kind == "wlp":
            return {"kind": "wlp", "p": self.p, "weights": list(self.weights)}
        return {"kind": self.kind}


def norm_eval(spec: NormSpec, x: np.ndarray) -> np.ndarray | float:
    """Evaluate the norm on the last axis of ``x``.

    Accepts a single vector or any stack of vectors; returns a scalar or the
    matching stack of scalars.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        raise ValueError("norm_eval expects at least a 1-d vector")
    if spec.kind == "wlp" and x.shape[-1] != len(spec.weights):
        raise ValueError(
            f"dimension mismatch: vector has {x.shape[-1]} entries, "
            f"wlp norm has {len(spec.weights)} weights"
        )
    # The ufuncs' own reductions: the bits of np.sum and np.max, without their wrappers.
    if spec.kind == "l1":
        out = np.add.reduce(np.abs(x), axis=-1)
    elif spec.kind == "l2":
        out = np.sqrt(np.add.reduce(x * x, axis=-1))
    elif spec.kind == "linf":
        out = np.maximum.reduce(np.abs(x), axis=-1)
    else:
        peak, scaled = scaled_magnitudes(np.asarray(spec.weights, dtype=float) * np.abs(x))
        out = peak * np.add.reduce(scaled**spec.p, axis=-1) ** (1.0 / spec.p)
    return float(out) if out.ndim == 0 else out


def scaled_magnitudes(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest entry m of y >= 0 on the last axis, and y / m (y itself where m is 0 or inf).

    The weighted lp norm is m (sum (y_i / m)^p)^(1/p): every power lies in
    [0, 1] and the largest is 1, so the sum neither overflows nor
    underflows to zero at large p.
    """
    peak = np.maximum.reduce(y, axis=-1)
    return peak, y / np.where((peak > 0.0) & (peak < np.inf), peak, 1.0)[..., None]


def _lp_profile(spec: NormSpec) -> tuple[float, float, float]:
    """Reduce a menu norm to (exponent, min weight, max weight)."""
    if spec.kind == "l1":
        return 1.0, 1.0, 1.0
    if spec.kind == "l2":
        return 2.0, 1.0, 1.0
    if spec.kind == "linf":
        return math.inf, 1.0, 1.0
    return float(spec.p), min(spec.weights), max(spec.weights)


def equivalence_constant(a: NormSpec, b: NormSpec, n: int) -> float:
    """Smallest tabulated c with a(x) <= c * b(x) on R^n.

    Exact for every pair of plain kinds (the classical n^(1/p - 1/q)
    table); valid but possibly loose when a wlp norm is involved, where the
    weight extremes bracket the weighted norm between plain lp norms.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    for spec in (a, b):
        if spec.kind == "wlp" and len(spec.weights) != n:
            raise ValueError(
                f"wlp norm has {len(spec.weights)} weights but dimension is {n}"
            )
    if a == b:
        return 1.0
    pa, _, wmax_a = _lp_profile(a)
    pb, wmin_b, _ = _lp_profile(b)
    inv_pa = 0.0 if math.isinf(pa) else 1.0 / pa
    inv_pb = 0.0 if math.isinf(pb) else 1.0 / pb
    cross = 1.0 if inv_pa <= inv_pb else float(n) ** (inv_pa - inv_pb)
    return wmax_a * cross / wmin_b


@dataclass(frozen=True)
class EquivConstants:
    """Comparison constants tying the fidelity and data norms to Euclidean.

    delta1: data(x) <= delta1 * ||x||_2
    delta2: ||x||_2 <= delta2 * fidelity(x)
    delta3: ||x||_2 <= delta3 * data(x)
    delta_bar: delta1 * delta2, so data(x) <= delta_bar * fidelity(x)
    """

    delta1: float
    delta2: float
    delta3: float
    delta_bar: float


def compute_equiv_constants(fidelity: NormSpec, data: NormSpec, n: int) -> EquivConstants:
    l2 = NormSpec.l2()
    d1 = equivalence_constant(data, l2, n)
    d2 = equivalence_constant(l2, fidelity, n)
    d3 = equivalence_constant(l2, data, n)
    return EquivConstants(delta1=d1, delta2=d2, delta3=d3, delta_bar=d1 * d2)


def euclid_ball_volume(n: int) -> float:
    """Volume of the Euclidean unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class VolumeEstimate:
    """A volume with its one-standard-error uncertainty (0 when exact)."""

    value: float
    std_err: float = 0.0


def hit_or_miss_volume(
    indicator: Callable[[np.ndarray], np.ndarray],
    half_widths: Sequence[float] | np.ndarray,
    n_samples: int,
    seed: int,
    stream: int,
) -> VolumeEstimate:
    """Monte Carlo volume of a set enclosed in the box prod_i [-h_i, h_i].

    Used only where no exact volume exists, the shadows and slices of wlp
    balls with p > 1 (``bounds._volumes``).  ``indicator`` maps an (m, d)
    array of points to an (m,) boolean array.
    The draws run chunk by chunk in the calling thread; chunked
    counter-based draws keep the estimate identical for any interleaving
    with other computations.
    """
    h = np.asarray(half_widths, dtype=float)
    if h.ndim != 1 or h.size == 0 or np.any(h <= 0) or not np.all(np.isfinite(h)):
        raise ValueError("half_widths must be a nonempty vector of positive reals")
    hits = 0
    for chunk_index in range(streams.n_chunks_for(n_samples)):
        pts = streams.uniform_box_chunk(seed, stream, chunk_index, h)
        # Only the last chunk is cut short, to the draws below n_samples.
        pts = pts[: n_samples - chunk_index * streams.CHUNK]
        hits += int(np.count_nonzero(indicator(pts)))
    box = float(np.prod(2.0 * h))
    p = hits / n_samples
    return VolumeEstimate(
        value=box * p,
        std_err=box * math.sqrt(max(p * (1.0 - p), 0.0) / n_samples),
    )


def ball_volume(spec: NormSpec, n: int) -> VolumeEstimate:
    """Volume of the unit ball of ``spec`` in R^n, exact (std_err 0).

    The weighted lp ball has volume (2 Gamma(1 + 1/p))^n / (Gamma(1 + n/p)
    prod_i w_i); l1, l2 and linf are its special cases, written out so each
    keeps its own rounding.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if spec.kind == "l1":
        return VolumeEstimate(2.0**n / math.factorial(n))
    if spec.kind == "l2":
        return VolumeEstimate(euclid_ball_volume(n))
    if spec.kind == "linf":
        return VolumeEstimate(2.0**n)
    if len(spec.weights) != n:
        raise ValueError(f"wlp norm has {len(spec.weights)} weights but dimension is {n}")
    p = spec.p
    return VolumeEstimate(
        (2.0 * math.gamma(1.0 + 1.0 / p)) ** n
        / (math.gamma(1.0 + n / p) * math.prod(spec.weights))
    )


def _maximal_sets(sets: np.ndarray, least: int) -> np.ndarray:
    """(P, R) mask of the rows of each (R, C) boolean matrix in a stack that
    have at least ``least`` members and lie inside no other row, the first
    of each group of equal rows.  Counts come from products of 0/1
    matrices, exact in float32, taken in blocks of rows near 16 MB."""
    counts = sets.astype(np.float32)
    size = counts.sum(axis=2)
    keep = size >= least
    rows = sets.shape[1]
    step = max(1, (1 << 22) // max(1, sets.shape[0] * rows))
    for lo in range(0, rows, step):
        part = slice(lo, lo + step)
        within = counts[:, part] @ counts.transpose(0, 2, 1) == size[:, part, None]
        larger = size[:, None, :] > size[:, part, None]
        earlier = np.arange(rows) < np.arange(rows)[part, None]
        keep[:, part] &= ~(within & (larger | earlier)).any(axis=2)
    return keep


def _padded(rows: np.ndarray, owner: np.ndarray, count: int) -> np.ndarray:
    """(count, width, ...) stack of ragged row groups: owner (nondecreasing)
    names each row's group, each group keeps its rows' order, and zero (or
    false) rows pad every group, an empty one too, up to the widest."""
    widths = np.bincount(owner, minlength=count)
    slot = np.arange(len(owner)) - (np.cumsum(widths) - widths)[owner]
    grid = np.zeros((count, widths.max(initial=0), *rows.shape[1:]), dtype=rows.dtype)
    grid[owner, slot] = rows
    return grid


def _walls(meets: np.ndarray, owner: np.ndarray, count: int) -> np.ndarray:
    """(count, width, m) vertex sets: for each owner (nondecreasing), the
    maximal sets among its meets, one of each; the other rows are empty."""
    grid = _padded(meets, owner, count)
    return grid & _maximal_sets(grid, 1)[:, :, None]


def polytope_volume(vertices: np.ndarray, facet_normals: np.ndarray) -> float:
    """Exact volume of the polytope {x : <a, x> <= 1 for every row a of facet_normals}.

    The origin must lie inside the polytope, and ``vertices`` must hold
    every vertex.  Other boundary points and repeats are allowed: a point
    is kept when the facets through it (products within 1e-10 of 1) form a
    maximal set, one point per set.  Rows that touch no kept point, or only
    a smaller face, are dropped the same way, so redundant and repeated
    inequalities (and zero rows of either array) do no harm.

    The polytope is cut into simplices: the cone from the origin over a
    pulling triangulation of each facet (Lasserre, JOTA 39, 1983; Bueler,
    Enge & Fukuda, 2000).  A face is its vertex set.  A face of dimension
    j with j + 1 vertices is a simplex; any other is the union of pyramids
    from its lowest vertex over its facets that avoid it.  The facets of a
    facet H of a face X are the maximal proper sets H & H' over the other
    facets H' of X, so each face meets only its siblings.  The walk runs
    over many faces at once, one dimension per step, and every simplex's
    determinant comes from one batched ``np.linalg.det``; the simplices are
    summed in a fixed order.  A ValueError is raised past the size cap
    and when the incidences do not form a face lattice.
    """
    v = np.asarray(vertices, dtype=float)
    a = np.asarray(facet_normals, dtype=float)
    if v.ndim != 2 or a.ndim != 2:
        raise ValueError(f"need (m, d) vertices and (f, d) facet normals, got {v.shape}, {a.shape}")
    return float(polytope_volumes(v[None], a[None])[0])


_LATTICE_ERROR = "facet incidences of the polytope do not form a face lattice"


def polytope_volumes(vertices: np.ndarray, facet_normals: np.ndarray) -> np.ndarray:
    """``polytope_volume`` of each polytope in a stack of (P, m, d) vertices and
    (P, f, d) facet normals, zero rows padding the shorter lists, with their
    walks run together in batches near 16 MB.  Each value has the bits that
    ``polytope_volume`` gives its polytope alone."""
    v = np.asarray(vertices, dtype=float)
    a = np.asarray(facet_normals, dtype=float)
    if v.ndim != 3 or a.ndim != 3 or v.shape[::2] != a.shape[::2] or v.shape[2] == 0:
        raise ValueError(
            f"need (P, m, d) vertices and (P, f, d) facet normals, got {v.shape}, {a.shape}"
        )
    count, width, d = v.shape
    sizes.polytope_candidates(f"{width} points by {a.shape[1]} facet normals", width * a.shape[1])
    step = max(1, (1 << 21) // (a.shape[1] * (a.shape[1] + width)))
    return np.concatenate(
        [_summed(v[lo : lo + step], *_triangulate(v[lo : lo + step], a[lo : lo + step]))
         for lo in range(0, count, step)]
    )


def _summed(v: np.ndarray, chains: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Volume of each polytope of a stack from its simplices, summed in
    lexicographic order of their point indices."""
    count, _, d = v.shape
    if np.any(np.bincount(owner, minlength=count) == 0):
        raise ValueError(_LATTICE_ERROR)
    order = np.lexsort(np.vstack([chains.T[::-1], owner]))
    chains, owner = chains[order], owner[order]
    dets = np.abs(np.linalg.det(v[owner[:, None], chains]))
    return np.add.reduceat(dets, np.searchsorted(owner, np.arange(count))) / math.factorial(d)


def _triangulate(v: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Simplices (rows of d point indices) of the polytopes of a stack, and
    the polytope each belongs to."""
    count, width, d = v.shape
    on = np.abs(v @ a.transpose(0, 2, 1) - 1.0) <= _ON_FACET
    on &= _maximal_sets(on, d)[:, :, None]
    facets = on.transpose(0, 2, 1)
    facets = facets & _maximal_sets(facets, d)[:, :, None]
    touched = facets.any(axis=1)
    if np.any(touched & (facets.sum(axis=1) < d)):  # every vertex lies on d facets or more
        raise ValueError(_LATTICE_ERROR)
    # A batch of faces X of one dimension: the facets of each X (padded with
    # empty sets), the apex of X (-1 for a polytope, whose apex is the
    # origin), the apexes leading to X, shared by the simplices inside it,
    # and the polytope X belongs to.
    stack = [(d, facets, np.full(count, -1), np.empty((count, 0), dtype=np.intp), np.arange(count))]
    met = np.zeros(count, dtype=np.int64)
    simplices, owners = [], []
    while stack:
        dim, walls, apex, prefix, poly = stack.pop()
        size = walls.sum(axis=2)
        walked = (size > 0) & ((apex < 0)[:, None] | ~walls[np.arange(len(apex)), :, apex])
        if np.any((size > 0) & (size < dim)):
            raise ValueError(_LATTICE_ERROR)
        group, which = np.nonzero(walked & (size == dim))
        corners = np.nonzero(walls[group, which])[1].reshape(-1, dim)
        simplices.append(np.hstack([prefix[group], corners]))
        owners.append(poly[group])
        group, which = np.nonzero(walked & (size > dim))
        if len(group) == 0:
            continue
        if dim == 1:
            raise ValueError(_LATTICE_ERROR)
        np.add.at(met, poly[group], np.count_nonzero(size, axis=1)[group])
        worst = poly[group][np.argmax(met[poly[group]])]
        sizes.polytope_candidates(
            f"face walk of a {d}-polytope with {np.count_nonzero(touched[worst])} vertices",
            met[worst],
        )
        # Vertices each face shares with each sibling; a lone polytope's
        # facets are counted for its non-simplex facets alone.
        counts = walls.astype(np.float32)
        if len(walls) == 1:
            cut = counts[0, which] @ counts[0].T
        else:
            cut = (counts @ counts.transpose(0, 2, 1))[group, which]
        child, sibling = np.nonzero((cut >= dim - 1) & (cut < size[group, which][:, None]))
        top = walls[group, which].argmax(axis=1)
        chains = np.column_stack([prefix[group], top])
        # Batches of children whose face-by-wall arrays stay near 16 MB.
        most = np.bincount(child).max()
        step = max(1, (1 << 22) // (most * (most + width)))
        for lo in range(0, len(group), step):
            pick = slice(*np.searchsorted(child, [lo, lo + step]))
            owner = group[child[pick]], which[child[pick]]
            meets = walls[owner] & walls[owner[0], sibling[pick]]
            inner = _walls(meets, child[pick] - lo, min(step, len(group) - lo))
            if np.any(~inner.any(axis=(1, 2))):
                raise ValueError(_LATTICE_ERROR)
            part = slice(lo, lo + step)
            stack.append((dim - 1, inner, top[part], chains[part], poly[group[part]]))
    return np.concatenate(simplices), np.concatenate(owners)
