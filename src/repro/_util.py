"""Small vectorised helpers shared across the package.

These are the NumPy idioms that replace the inner loops a CUDA kernel
would run: gathering the concatenated adjacency lists of a vertex
frontier, deduplicating the next frontier, and computing per-chunk
maxima used by the load-imbalance (warp/block serialisation) cost model.
"""

from __future__ import annotations

import numpy as np

from .errors import ClusterConfigurationError

__all__ = [
    "sorted_unique",
    "unique_of_sorted",
    "concat_ranges",
    "chunk_max_sum",
    "as_index_array",
    "check_nonnegative_int",
    "partition_roots",
]


def sorted_unique(a) -> np.ndarray:
    """Sorted distinct values of ``a`` (flattened): ``np.unique`` by sort.

    For integer arrays the result is byte-identical to ``np.unique(a)``.
    NumPy >= 2.3 answers ``np.unique`` on integers with a hash table,
    which on the frontier and edge-key arrays here is tens of times
    slower than sorting and dropping adjacent repeats.
    """
    a = np.array(a).ravel()  # a copy, sorted in place
    a.sort()
    return unique_of_sorted(a)


def unique_of_sorted(a: np.ndarray) -> np.ndarray:
    """Distinct values of the sorted 1-D array ``a``: the first of each
    run of repeats (``a`` itself when it has fewer than two)."""
    if a.size < 2:
        return a
    keep = np.empty(a.size, dtype=bool)
    keep[0] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a.take(keep.nonzero()[0])


def concat_ranges(starts: np.ndarray, counts: np.ndarray,
                  ends: np.ndarray | None = None) -> np.ndarray:
    """Return ``concatenate([arange(s, s+c) for s, c in zip(starts, counts)])``.

    Each output element is its range's start plus its offset within the
    range: repeat ``start - (range's first output index)`` per element
    and add the output index.  This is the workhorse of the frontier
    expansion step (gathering all neighbours of all frontier vertices at
    once).

    Parameters
    ----------
    starts, counts:
        Equal-shape integer arrays. ``counts`` entries may be zero;
        negative entries raise ``ValueError``.
    ends:
        Optional ``np.add.accumulate(counts)``, when the caller has it.

    Returns
    -------
    numpy.ndarray of int64 with ``counts.sum()`` elements.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if starts.shape != counts.shape:
        raise ValueError("starts and counts must have the same shape")
    starts, counts = starts.ravel(), counts.ravel()
    if ends is None:
        ends = np.add.accumulate(counts)
    total = int(ends[-1]) if ends.size else 0
    out = (starts - (ends - counts)).repeat(counts)
    out += np.arange(total)
    return out


def chunk_max_sum(weights: np.ndarray, chunk: int) -> int:
    """Sum of per-chunk maxima of ``weights`` split into chunks of
    ``chunk``: serialised execution of groups of concurrent threads,
    each thread doing ``weights[i]`` sequential units of work, a group
    finishing when its slowest thread does.  An empty ``weights`` costs
    zero."""
    weights = np.asarray(weights).ravel()
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    if weights.size == 0:
        return 0
    starts = np.arange(0, weights.size, chunk)
    return int(np.maximum.reduceat(weights, starts).sum())


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


def partition_roots(num_roots: int, num_parts: int) -> list:
    """Contiguous block partition of roots 0..num_roots-1, part sizes
    differing by at most one (the paper distributes "a subset of roots
    to each GPU"; the process pool splits its chunks the same way, as
    ``[roots[p] for p in partition_roots(roots.size, k)]``).

    When ``num_parts > num_roots`` some parts are empty arrays.  Ranks
    handed an empty part are *not* dropped from the program: in
    :func:`repro.resilience.resilient_distributed_bc` they contribute
    an all-zero vector to the reduce, which the test suite verifies
    leaves the result exact.
    """
    if num_parts < 1:
        raise ClusterConfigurationError("num_parts must be >= 1")
    if num_roots < 0:
        raise ClusterConfigurationError("num_roots must be >= 0")
    bounds = np.linspace(0, num_roots, num_parts + 1).astype(np.int64)
    return [np.arange(bounds[i], bounds[i + 1], dtype=np.int64)
            for i in range(num_parts)]
