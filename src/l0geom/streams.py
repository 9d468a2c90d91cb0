"""Counter-based random streams.

Every Monte Carlo routine in this package draws from a Philox generator
keyed by ``(seed, stream)`` and positioned by a chunk index.  Sample i of a
run lives in chunk ``i // CHUNK`` and depends only on (seed, stream, chunk),
never on how many samples were drawn before it or on which worker produced
it.  That makes every estimate reproducible across call order and thread
count, and lets any single sample be regenerated in isolation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

import numpy as np

if TYPE_CHECKING:
    from numpy.random import Generator

# Samples per chunk.  Each chunk owns a disjoint 2**192 slice of the Philox
# counter space, so chunks can never collide.
CHUNK = 4096

# Purpose tags keep unrelated draws on disjoint key streams.
PURPOSE_LEVELSET = 1
PURPOSE_PROJECTED = 3
PURPOSE_SLICE = 4

_T = TypeVar("_T")


def stream_id(purpose: int, subid: int = 0) -> int:
    """Pack a purpose tag and a sub-stream index into one 64-bit stream id."""
    if not 0 <= purpose < 2**31:
        raise ValueError(f"purpose out of range: {purpose}")
    if not 0 <= subid < 2**32:
        raise ValueError(f"subid out of range: {subid}")
    return (purpose << 32) | subid


def chunk_generator(seed: int, stream: int, chunk_index: int) -> Generator:
    """Generator for one chunk, independent of all other chunks.

    The key is (seed, stream); the chunk index is planted in the top word of
    the 256-bit counter so consecutive chunks start 2**192 states apart.
    NumPy's RNG loads on the first call, so a caller that never samples
    never loads it.
    """
    from numpy.random import Generator, Philox

    if chunk_index < 0:
        raise ValueError(f"chunk_index must be nonnegative, got {chunk_index}")
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)], dtype=np.uint64)
    counter = np.array([0, 0, 0, np.uint64(chunk_index)], dtype=np.uint64)
    return Generator(Philox(key=key, counter=counter))


def map_chunks(
    fn: Callable[[int], _T],
    n_chunks: int,
    workers: int = 1,
) -> list[_T]:
    """Evaluate ``fn(0), ..., fn(n_chunks - 1)`` and return results in order.

    ``workers`` only controls how the loop is executed: each worker takes
    one task, a contiguous run of chunk indices.  Each call is pure in its
    chunk index, so the result list is identical for any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, n_chunks)
    if workers <= 1:
        return [fn(i) for i in range(n_chunks)]
    from concurrent.futures import ThreadPoolExecutor

    ends = [n_chunks * w // workers for w in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        runs = pool.map(lambda w: [fn(i) for i in range(ends[w], ends[w + 1])], range(workers))
        return [result for run in runs for result in run]


def n_chunks_for(n_samples: int) -> int:
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    return -(-n_samples // CHUNK)


def uniform_box_chunk(
    seed: int,
    stream: int,
    chunk_index: int,
    half_widths: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """One chunk of points uniform on the box prod_i [-h_i, h_i]."""
    h = np.asarray(half_widths, dtype=float)
    gen = chunk_generator(seed, stream, chunk_index)
    return (2.0 * gen.random((CHUNK, h.size)) - 1.0) * h
