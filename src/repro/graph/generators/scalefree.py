"""Scale-free generators: preferential attachment and Chung-Lu.

Barabási-Albert preferential attachment produces the power-law degree
distributions (few massive hubs, many low-degree vertices) that drive
the load-imbalance analysis of Section III-A; Chung-Lu draws a graph
with a *prescribed* expected degree sequence and is used for the
power-law stand-ins where we want to control the exponent directly.
"""

from __future__ import annotations

import numpy as np

from ..._util import sorted_unique
from ..build import from_edges
from ..csr import CSRGraph

__all__ = ["barabasi_albert", "chung_lu", "powerlaw_degree_sequence"]


def barabasi_albert(n: int, m: int = 3, seed: int = 0, name: str = "") -> CSRGraph:
    """Barabási-Albert preferential attachment.

    Each new vertex attaches to ``m`` existing vertices chosen with
    probability proportional to their current degree, implemented with
    the standard repeated-endpoints trick (sampling uniformly from the
    flat list of all edge endpoints is degree-proportional sampling).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n <= m:
        # Complete graph on the few vertices we have.
        idx = np.arange(max(n, 0))
        pairs = np.array([(u, v) for u in idx for v in idx if u < v], dtype=np.int64)
        return from_edges(pairs.reshape(-1, 2), num_vertices=max(n, 0),
                          name=name or f"ba_{n}_{m}")
    rng = np.random.default_rng(seed)
    # Endpoint pool; each undirected edge contributes both endpoints.
    targets = np.empty(2 * m * (n - m), dtype=np.int64)
    pool_len = 0
    src_list = np.empty(m * (n - m), dtype=np.int64)
    dst_list = np.empty(m * (n - m), dtype=np.int64)
    e = 0
    # Seed star over the first m+1 vertices so every early vertex has degree.
    for v in range(m):
        src_list[e] = m
        dst_list[e] = v
        targets[pool_len] = m
        targets[pool_len + 1] = v
        pool_len += 2
        e += 1
    for v in range(m + 1, n):
        picks = targets[rng.integers(0, pool_len, size=m)]
        picks = sorted_unique(picks)
        for t in picks:
            src_list[e] = v
            dst_list[e] = t
            targets[pool_len] = v
            targets[pool_len + 1] = t
            pool_len += 2
            e += 1
    edges = np.column_stack([src_list[:e], dst_list[:e]])
    return from_edges(edges, num_vertices=n, undirected=True,
                      name=name or f"ba_{n}_{m}")


def powerlaw_degree_sequence(
    n: int, exponent: float = 2.4, min_degree: int = 2,
    max_degree: int | None = None, seed: int = 0,
) -> np.ndarray:
    """Draw an integer power-law degree sequence with exponent ``exponent``."""
    if exponent <= 1.0:
        raise ValueError("power-law exponent must exceed 1")
    rng = np.random.default_rng(seed)
    if max_degree is None:
        max_degree = max(min_degree + 1, int(np.sqrt(n) * 3))
    u = rng.random(n)
    a = 1.0 - exponent
    lo, hi = float(min_degree), float(max_degree)
    # Inverse-CDF sampling of a truncated Pareto distribution.
    deg = (lo ** a + u * (hi ** a - lo ** a)) ** (1.0 / a)
    return np.maximum(min_degree, deg.astype(np.int64))


def chung_lu(
    weights: np.ndarray, seed: int = 0, name: str = ""
) -> CSRGraph:
    """Chung-Lu random graph with expected degrees ``weights``.

    Implemented with the O(m) "edge-skipping"-free approximation: draw
    ``sum(w)/2`` endpoint pairs with probability proportional to weight.
    This preserves the expected degree sequence up to multi-edge
    collisions (removed by dedup), which is the standard fast sampler.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    n = w.size
    total = w.sum()
    if total <= 0:
        return from_edges(np.empty((0, 2), np.int64), num_vertices=n,
                          name=name or f"chung_lu_{n}")
    rng = np.random.default_rng(seed)
    num_pairs = int(total // 2)
    p = w / total
    src = rng.choice(n, size=num_pairs, p=p)
    dst = rng.choice(n, size=num_pairs, p=p)
    edges = np.column_stack([src, dst]).astype(np.int64)
    return from_edges(edges, num_vertices=n, undirected=True,
                      name=name or f"chung_lu_{n}")
