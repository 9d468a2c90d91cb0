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
unit-ball volumes.  ``hit_or_miss_volume`` estimates the volumes of the
shadows and slices that have no closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from . import streams

_KINDS = ("l1", "l2", "linf", "wlp")


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
    if spec.kind == "l1":
        out = np.sum(np.abs(x), axis=-1)
    elif spec.kind == "l2":
        out = np.sqrt(np.sum(x * x, axis=-1))
    elif spec.kind == "linf":
        out = np.max(np.abs(x), axis=-1)
    else:
        peak, scaled = scaled_magnitudes(np.asarray(spec.weights, dtype=float) * np.abs(x))
        out = peak * np.sum(scaled**spec.p, axis=-1) ** (1.0 / spec.p)
    return float(out) if out.ndim == 0 else out


def scaled_magnitudes(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest entry m of y >= 0 on the last axis, and y / m (y itself where m is 0 or inf).

    The weighted lp norm is m (sum (y_i / m)^p)^(1/p): every power lies in
    [0, 1] and the largest is 1, so the sum neither overflows nor
    underflows to zero at large p.
    """
    peak = np.max(y, axis=-1)
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

    ``indicator`` maps an (m, d) array of points to an (m,) boolean array.
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
