"""Dense two-phase simplex for the small norm-projection linear programs.

The solver handles the standard form min c.x subject to A x = b, x >= 0,
with Bland's rule throughout, so it cannot cycle.  Problem sizes here are
tiny (tens of variables), which keeps a dense tableau both simple and
fast.  The tests' oracles build the l1 and linf projection programs for
the closest point of a subspace on top of it.

No runtime path uses these programs.  Distances are row maxima against
the dual vertex tables of ``solver.dual_vertices``, and closest points are
completions of the maximising vertex (``solver._Certificate``).  This
module is the independent LP solver the tests check both against.
"""

from __future__ import annotations

import numpy as np


class SimplexError(RuntimeError):
    """Raised when a program is infeasible or the iteration cap is hit."""


def solve_standard_form(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-9,
    max_iter: int | None = None,
) -> tuple[np.ndarray, float]:
    """Minimize c.x subject to a x = b, x >= 0.

    Returns (x, value) at an optimal vertex.  Raises SimplexError when the
    constraints are infeasible; unboundedness cannot occur in the bounded
    projection programs built below but is detected and raised as well.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    if a.ndim != 2 or b.shape != (a.shape[0],) or c.shape != (a.shape[1],):
        raise ValueError(f"inconsistent shapes: a {a.shape}, b {b.shape}, c {c.shape}")
    m, n = a.shape
    if max_iter is None:
        max_iter = 200 * (m + n + 10)

    a = a.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # Tableau columns: n structural, m artificial, rhs.
    # Rows: m constraints, phase-2 cost, phase-1 cost.
    t = np.zeros((m + 2, n + m + 1))
    t[:m, :n] = a
    t[:m, n : n + m] = np.eye(m)
    t[:m, -1] = b
    t[m, :n] = c
    t[m + 1, :n] = -a.sum(axis=0)
    t[m + 1, -1] = -b.sum()
    basis = list(range(n, n + m))

    def pivot(row: int, col: int) -> None:
        t[row] /= t[row, col]
        for r in range(t.shape[0]):
            if r != row and t[r, col] != 0.0:
                t[r] -= t[r, col] * t[row]
        basis[row] = col

    def run_phase(cost_row: int, n_cols: int, budget: int) -> int:
        used = 0
        while True:
            entering = -1
            for j in range(n_cols):
                if t[cost_row, j] < -tol:
                    entering = j
                    break
            if entering < 0:
                return used
            leaving = -1
            best = np.inf
            for r in range(m):
                if t[r, entering] > tol:
                    ratio = t[r, -1] / t[r, entering]
                    # Bland tie-break: smallest basis variable index.
                    if ratio < best - tol or (
                        ratio < best + tol and (leaving < 0 or basis[r] < basis[leaving])
                    ):
                        best = ratio
                        leaving = r
            if leaving < 0:
                raise SimplexError("unbounded linear program")
            pivot(leaving, entering)
            used += 1
            if used > budget:
                raise SimplexError(f"iteration cap {budget} exceeded")

    spent = run_phase(m + 1, n + m, max_iter)
    if t[m + 1, -1] < -(1e-7 * (1.0 + float(b.max(initial=0.0)))):
        raise SimplexError("infeasible linear program")

    # Remove leftover artificial basics (degenerate rows) before phase 2.
    for r in range(m):
        if basis[r] >= n:
            for j in range(n):
                if abs(t[r, j]) > tol:
                    pivot(r, j)
                    break
            else:
                t[r, :] = 0.0  # redundant constraint row
    t[:, n : n + m] = 0.0
    run_phase(m, n, max_iter - spent)

    x = np.zeros(n)
    for r, j in enumerate(basis):
        if j < n:
            x[j] = t[r, -1]
    return x, float(-t[m, -1])
