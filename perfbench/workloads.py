"""Seeded workload generator for the l0geom benchmark.

``generate(name, seed)`` is a pure function: it builds the JSON config that
``l0geom validate`` reads and the data vectors that ``L0Solver.solve`` is
timed on, from the workload name and the seed alone.  The program under
test never sees the seed except through these generated inputs.

The solve vectors are drawn here with NumPy's own generator, not with the
program's sampler, so a change to the program's samplers cannot change
the benchmark's inputs.  NOTES.md gives the reason for each workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

# The acceptance suite's 3-d dictionary (tests/test_acceptance.py).
DICT3 = (
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (1.0, 1.0, 0.0),
    (1.0, -1.0, 1.0),
)

NAMES = ("poly3", "family5", "l1ball6")

# Solve latency is a closed loop over this many distinct vectors, so the
# 99th percentile has at least ten samples beyond it.  Each workload's
# solve tau puts both p50 and p99 well inside one value of the solve, not
# on the edge between two, where the share of each value would decide them.
N_SOLVE_VECTORS = 1000

# Sub-stream tags for the generator; the solve vectors never share a stream
# with anything the program draws.
_TAG_ATOMS = 1
_TAG_SOLVE = 2

# Fixed seed of family5's base atoms; the workload seed only rotates them.
_FAMILY5_ATOMS = 2008


@dataclass(frozen=True)
class Workload:
    """Everything one benchmark run needs, generated from (name, seed).

    ``cap_s`` is the wall-time cap of one validate call; a call past it
    counts all of its cells as failed and ends the workload's validate
    loop.
    """

    name: str
    seed: int
    config: dict[str, Any]
    solve_data: np.ndarray
    solve_tau: float
    cap_s: float


def _rng(name: str, seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, NAMES.index(name), tag])


def uniform_ball(rng: np.random.Generator, kind: str, n: int, count: int, theta: float) -> np.ndarray:
    """Points uniform in the radius-theta l2 or l1 ball of R^n."""
    if kind == "l2":
        g = rng.standard_normal((count, n))
        radii = theta * rng.random(count) ** (1.0 / n)
        return g * (radii / np.linalg.norm(g, axis=1))[:, None]
    if kind == "l1":
        # n + 1 exponentials normalised to sum 1 are uniform on the simplex;
        # the first n with random signs are uniform on the l1 ball.
        e = rng.exponential(size=(count, n + 1))
        signs = rng.choice((-1.0, 1.0), size=(count, n))
        return theta * signs * e[:, :n] / e.sum(axis=1, keepdims=True)
    raise ValueError(f"no ball sampler for {kind!r}")


def _family5_atoms(seed: int) -> list[list[float]]:
    """Eight Gaussian atoms in R^5 plus a0 + a1 and a2 + a3, turned by a seeded rotation.

    The two dependent atoms make many subsets span the same subspace, so
    span deduplication and pair enumeration do real work.  The atoms are
    drawn once from a fixed generator and the seed picks a uniformly random
    rotation of them: with l2 fidelity and l2 data every cost of the
    workload is rotation invariant, so the seed changes the inputs without
    changing how much work they are.
    """
    g = np.random.default_rng(_FAMILY5_ATOMS).standard_normal((8, 5))
    atoms = np.vstack([g, g[0] + g[1], g[2] + g[3]])
    q, r = np.linalg.qr(_rng("family5", seed, _TAG_ATOMS).standard_normal((5, 5)))
    rotation = q * np.sign(np.diag(r))  # Haar-distributed orthogonal matrix
    return (atoms @ rotation.T).tolist()


def generate(name: str, seed: int) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if name == "poly3":
        config = {
            "dictionary": [list(a) for a in DICT3],
            "fidelity": {"kind": "linf"},
            "data": {"kind": "l1"},
            "tau_grid": [0.01, 0.02, 0.05],
            "samples": 250,
        }
        solve_tau = 0.05
        cap_s = 60.0
    elif name == "family5":
        config = {
            "dictionary": _family5_atoms(seed),
            "fidelity": {"kind": "l2"},
            "data": {"kind": "l2"},
            "tau_grid": [0.05, 0.1, 0.2],
            "samples": 50_000,
        }
        solve_tau = 0.1
        cap_s = 60.0
    else:
        config = {
            "dictionary": np.eye(6).tolist(),
            "fidelity": {"kind": "l2"},
            "data": {"kind": "l1"},
            "tau_grid": [0.02, 0.05, 0.1],
            "samples": 10_000,
        }
        solve_tau = 0.1
        cap_s = 60.0
    config.update(theta=1.0, seed=seed, threads=1)
    n = len(config["dictionary"][0])
    solve_data = uniform_ball(
        _rng(name, seed, _TAG_SOLVE), config["data"]["kind"], n, N_SOLVE_VECTORS, config["theta"]
    )
    return Workload(
        name=name,
        seed=seed,
        config=config,
        solve_data=solve_data,
        solve_tau=solve_tau,
        cap_s=cap_s,
    )
