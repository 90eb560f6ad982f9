"""Literal edge-parallel kernel (Jia et al., Section III-A).

One (virtual) thread per directed edge; *every* edge is inspected on
*every* iteration of both stages — the O(n^2 + m) traversal whose
wasted inspections the paper's Table III quantifies.  Perfectly load
balanced, but asymptotically inefficient on high-diameter graphs.

The forward stage is expressed with NumPy masks over the full edge
arrays (which is faithful: the kernel's per-edge predicate *is* a mask
over all edges).  Values match the work-efficient kernel exactly; the
test suite asserts it.
"""

from __future__ import annotations

import numpy as np

from .._util import sorted_unique
from ..graph.csr import CSRGraph

__all__ = ["edge_parallel_root", "bc_edge_parallel"]

UNREACHED = -1


def edge_parallel_root(g: CSRGraph, s: int):
    """Run both stages edge-parallel for source ``s``.

    Returns ``(d, sigma, delta, iterations)`` where ``iterations`` is
    the number of full-edge-sweep iterations the forward stage used.
    """
    n = g.num_vertices
    s = int(s)
    if not 0 <= s < n:
        raise IndexError(f"source {s} out of range [0, {n})")
    esrc = g.edge_sources()
    edst = g.adj
    d = np.full(n, UNREACHED, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    d[s] = 0
    sigma[s] = 1.0
    depth = 0
    iterations = 0
    while True:
        iterations += 1
        # Each edge thread checks whether its source is in the current
        # depth; others do nothing (the wasted work).
        active = d[esrc] == depth
        if np.any(active):
            targets = edst[active]
            fresh = targets[d[targets] == UNREACHED]
            if fresh.size:
                d[sorted_unique(fresh)] = depth + 1
            useful = active & (d[edst] == depth + 1)
            if np.any(useful):
                np.add.at(sigma, edst[useful], sigma[esrc[useful]])
        if not np.any(d == depth + 1):
            break
        depth += 1
    max_depth = depth

    # Backward stage: every edge inspected once per level.  In the
    # edge-parallel layout multiple threads may update the same vertex's
    # dependency, hence the atomic adds the paper notes are unavoidable
    # here; np.add.at is the sequentially-consistent equivalent.
    delta = np.zeros(n, dtype=np.float64)
    for depth in range(max_depth - 1, 0, -1):
        on_level = d[esrc] == depth
        succ = on_level & (d[edst] == d[esrc] + 1)
        if np.any(succ):
            contrib = sigma[esrc[succ]] / sigma[edst[succ]] * (1.0 + delta[edst[succ]])
            np.add.at(delta, esrc[succ], contrib)
    return d, sigma, delta, iterations


def bc_edge_parallel(g: CSRGraph, sources=None) -> np.ndarray:
    """Exact BC computed with the literal edge-parallel kernel."""
    n = g.num_vertices
    bc = np.zeros(n, dtype=np.float64)
    for s in (range(n) if sources is None else sources):
        s = int(s)
        _, _, delta, _ = edge_parallel_root(g, s)
        delta[s] = 0.0
        bc += delta
    if g.undirected:
        bc /= 2.0
    return bc
