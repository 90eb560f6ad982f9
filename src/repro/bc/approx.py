"""Source-sampled approximate betweenness centrality.

The paper focuses on exact BC but notes (Section V-A) that its
techniques "can be trivially adjusted for approximation".  This module
is that trivial adjustment: accumulate dependencies from ``k``
uniformly sampled roots and rescale by ``n / k`` (the Brandes-Pich
estimator), through the same root loop as the exact computation.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph

__all__ = ["approximate_bc", "sample_sources"]


def sample_sources(g: CSRGraph, k: int, seed: int = 0) -> np.ndarray:
    """Pick ``min(k, n)`` distinct BC roots uniformly at random, the
    sample behind :func:`approximate_bc`'s unbiased estimate."""
    n = g.num_vertices
    k = min(int(k), n)
    if k < 0:
        raise ValueError("k must be non-negative")
    rng = np.random.default_rng(seed)
    return rng.choice(n, size=k, replace=False).astype(np.int64)


def approximate_bc(g: CSRGraph, k: int, seed: int = 0) -> np.ndarray:
    """Unbiased estimate of BC from ``k`` uniformly sampled roots: their
    summed dependencies rescaled by ``n / k``.

    The estimate is exact when ``k >= n`` (it degenerates to the full
    computation over a random root order).
    """
    from .api import betweenness_centrality

    sources = sample_sources(g, k, seed=seed)
    if sources.size == 0:
        return np.zeros(g.num_vertices, dtype=np.float64)
    partial = betweenness_centrality(g, sources=sources)
    return partial * (g.num_vertices / sources.size)
