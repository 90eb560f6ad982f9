"""Small vectorised helpers shared across the package.

These are the NumPy idioms that replace the inner loops a CUDA kernel
would run: gathering the concatenated adjacency lists of a vertex
frontier, deduplicating the next frontier, and computing per-chunk
maxima used by the load-imbalance (warp/block serialisation) cost model.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sorted_unique",
    "concat_ranges",
    "chunk_max_sum",
    "chunk_sum_of_max",
    "as_index_array",
    "check_nonnegative_int",
]


def sorted_unique(a) -> np.ndarray:
    """Sorted distinct values of ``a`` (flattened): ``np.unique`` by sort.

    For integer arrays the result is byte-identical to ``np.unique(a)``.
    NumPy >= 2.3 answers ``np.unique`` on integers with a hash table,
    which on the frontier and edge-key arrays here is tens of times
    slower than sorting and dropping adjacent repeats.
    """
    a = np.sort(np.asarray(a).ravel())
    if a.size < 2:
        return a
    keep = np.empty(a.size, dtype=bool)
    keep[0] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Return ``concatenate([arange(s, s+c) for s, c in zip(starts, counts)])``.

    This is the standard cumulative-sum trick for expanding CSR row slices
    without a Python-level loop; it is the workhorse of the frontier
    expansion step (gathering all neighbours of all frontier vertices at
    once).

    Parameters
    ----------
    starts, counts:
        Equal-length integer arrays. ``counts`` entries may be zero.

    Returns
    -------
    numpy.ndarray of int64 with ``counts.sum()`` elements.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if starts.shape != counts.shape:
        raise ValueError("starts and counts must have the same shape")
    if counts.size == 0:
        return np.empty(0, dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    nz = counts > 0
    if not np.any(nz):
        return np.empty(0, dtype=np.int64)
    starts = starts[nz]
    counts = counts[nz]
    total = int(counts.sum())
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    cum = np.cumsum(counts)
    # At each range boundary, jump from the end of the previous range to
    # the start of the next one.
    out[cum[:-1]] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(out)


def chunk_max_sum(weights: np.ndarray, chunk: int) -> int:
    """Sum of per-chunk maxima of ``weights`` split into chunks of ``chunk``.

    Models serialised execution of a group of ``chunk`` concurrent threads
    where each thread performs ``weights[i]`` sequential units of work:
    the group finishes when its slowest thread does, so the total time of
    all groups is the sum of per-group maxima.  An empty ``weights`` costs
    zero.
    """
    weights = np.asarray(weights)
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    k = weights.size
    if k == 0:
        return 0
    pad = (-k) % chunk
    if pad:
        weights = np.concatenate([weights, np.zeros(pad, dtype=weights.dtype)])
    return int(weights.reshape(-1, chunk).max(axis=1).sum())


def chunk_sum_of_max(weights: np.ndarray, chunk: int) -> int:
    """Alias kept for readability at call sites (same as :func:`chunk_max_sum`)."""
    return chunk_max_sum(weights, chunk)


def as_index_array(x, n: int, name: str = "indices") -> np.ndarray:
    """Validate and convert ``x`` to an int64 array of vertex ids < ``n``."""
    arr = np.asarray(x, dtype=np.int64).ravel()
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise IndexError(f"{name} out of range [0, {n})")
    return arr


def check_nonnegative_int(value, name: str) -> int:
    """Return ``value`` as a non-negative ``int`` or raise ``ValueError``."""
    iv = int(value)
    if iv < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return iv
