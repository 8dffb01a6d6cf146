"""Shared plumbing: RNG handling, chunked parallel maps, float formatting."""
from __future__ import annotations

import os
from typing import Callable, Sequence

import numpy as np

from .errors import InputError


def _check_seed(seed) -> None:
    """Raise InputError unless ``seed`` is a non-negative integer, as every chunk stream needs."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")


def as_rng(seed) -> np.random.Generator:
    """Coerce a non-negative int seed (``_check_seed``), SeedSequence, Generator or None."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        _check_seed(seed)
    return np.random.default_rng(seed)


def chunk_rng(*key: int) -> np.random.Generator:
    """Independent stream for one work chunk, ``SeedSequence(key)``; the key
    ends in the chunk index, e.g. (seed, c) or (seed, a_index, c).

    Chunk boundaries are fixed by the caller, so results do not depend on
    how many workers consume the chunks.
    """
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def effective_workers(threads: int | None, n_chunks: int, cpu_count: int | None) -> int:
    """Worker processes worth starting: min(threads, n_chunks, cpu_count), at least 1.

    An unknown ``cpu_count`` (None) counts as one CPU.
    """
    if threads is None:
        return 1
    return max(1, min(int(threads), int(n_chunks), cpu_count or 1))


def map_chunks(fn: Callable, args_list: Sequence, threads: int = 1) -> list:
    """Apply ``fn`` to each element of ``args_list``, optionally in worker processes.

    The pool never holds more workers than there are chunks or CPUs (see
    :func:`effective_workers`). Results come back in submission order
    regardless of ``threads``, so any downstream reduction is deterministic.
    Chunks travel to the workers in about four batches per worker, so the
    arrays that many chunks share are pickled once per batch, not per chunk.
    """
    # one thread or one chunk starts no pool, so the CPU count is not needed
    serial = threads is None or int(threads) <= 1 or len(args_list) <= 1
    workers = 1 if serial else effective_workers(threads, len(args_list), os.cpu_count())
    if workers <= 1:
        return [fn(a) for a in args_list]
    from concurrent.futures import ProcessPoolExecutor  # only a parallel run needs the pool

    batch = -(-len(args_list) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list, chunksize=batch))


def fmt_raw(x: float) -> str:
    """Shortest float text that parses back to exactly the same value."""
    return repr(float(x))


def fmt_human(x: float) -> str:
    """Short float for console summaries (4 significant digits)."""
    return format(float(x), ".4g")


def clamp_variance(value: float) -> float:
    """Zero out round-off negatives from positive semidefinite quadratic forms."""
    v = float(value)
    return 0.0 if v < 0.0 else v
