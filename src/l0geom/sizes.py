"""The one size rule: each cap on the work a run builds, and how it is priced.

``check_run`` prices every term of every level a command will touch, from
N, m and the level alone, before any work; each leaf builder prices its own
term through the same function, so a direct call gets the same refusal.
``polytope_candidates`` guards the counts known only once a table is built.
"""

import math

# C(m, K) subsets of a span family, 0 < K < N: the pair layer grows with their square.
MAX_SPAN_SUBSETS = 5_000
# C(N, N - K) 2^(N - K) candidates of an l1 or weighted-l1 dual vertex table.
MAX_DUAL_CANDIDATES = 250_000
# Vertex-by-facet candidates a polytope volume starts from, faces its walk
# examines (about 6 s at the cap on 2 CPUs), and a linf shadow's determinants.
MAX_POLYTOPE_CANDIDATES = 1_000_000


def _check(what: str, formula: str, count: int, unit: str, cap: str) -> None:
    limit = globals()[cap]  # read at each call, so a patched cap holds everywhere
    if count > limit:
        priced = f"{formula} = {count}" if formula else str(count)
        raise ValueError(f"{what} needs {priced} {unit}, above the cap of {limit} (sizes.{cap})")


def span_subsets(m: int, K: int) -> None:
    what = f"span family of m={m} atoms at K={K}"
    _check(what, f"C({m}, {K})", math.comb(m, K), "subsets", "MAX_SPAN_SUBSETS")


def section_points(box: bool, n: int, k: int) -> int:
    """Candidate points of a k-dimensional section of the box (k faces, each at
    either bound) or of the cross-polytope (k - 1 zero coordinates, both signs) in R^n."""
    return math.comb(n, k) * 2**k if box else 2 * math.comb(n, k - 1)


def dual_candidates(kind: str, n: int, K: int) -> None:
    what, formula = f"{kind} dual vertex table for N={n}, K={K}", f"C({n}, {n - K}) * 2^{n - K}"
    _check(what, formula, section_points(True, n, n - K), "candidates", "MAX_DUAL_CANDIDATES")


def slice_candidates(kind: str, n: int, k: int) -> None:
    # linf: box points by 2n facets; l1: cross-polytope points by 2^n signs.
    if kind == "linf":
        formula, count = f"C({n}, {k}) * 2^{k} * {2 * n}", section_points(True, n, k) * 2 * n
    else:
        formula, count = f"2 * C({n}, {k - 1}) * 2^{n}", section_points(False, n, k) * 2**n
    what = f"{kind} slice of a {k}-dimensional subspace of R^{n}"
    _check(what, formula, count, "candidates", "MAX_POLYTOPE_CANDIDATES")


def shadow_determinants(n: int, K: int) -> None:
    what = f"linf shadow of a {K}-dimensional subspace of R^{n}"
    _check(what, f"C({n}, {n - K})", math.comb(n, K), "determinants", "MAX_POLYTOPE_CANDIDATES")


def polytope_candidates(what: str, count: int) -> None:
    _check(what, "", count, "candidates", "MAX_POLYTOPE_CANDIDATES")


def check_run(dictionary, fidelity, data, *, profiles: bool = False, constants=()) -> None:
    """Refuse a run's first term over its cap, in the order the run builds them:
    for each level 0 < K < N of ``constants``, its span family, its members'
    slices (polyhedral data) and shadows (l1 and weighted-l1 fidelity: dual
    vertex tables; linf: determinants), and its meet slices at every
    max(1, 2K - N) <= k < K, even one no two members reach; then, with
    ``profiles``, the family and dual vertex tables of each level 1..N-1."""
    n, m = dictionary.n_dim, dictionary.n_atoms
    dual = fidelity.polyhedral and fidelity.kind != "linf"
    for K in sorted(K for K in set(constants) if 0 < K < n):
        span_subsets(m, K)
        if data.polyhedral:
            slice_candidates(data.kind, n, K)
        if dual:
            dual_candidates(fidelity.kind, n, K)
        elif fidelity.kind == "linf":
            shadow_determinants(n, K)
        for k in range(max(1, 2 * K - n), K) if data.polyhedral else ():
            slice_candidates(data.kind, n, k)
    for K in range(1, n) if profiles else ():
        span_subsets(m, K)
        if dual:
            dual_candidates(fidelity.kind, n, K)
