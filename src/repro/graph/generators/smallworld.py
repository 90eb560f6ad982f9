"""Watts-Strogatz small-world graphs (stand-in for ``smallworld``).

The paper's ``smallworld`` instance has 100k vertices, ~500k edges
(ring lattice degree k = 10), max degree 17 and diameter 9 — i.e. the
classic Watts-Strogatz construction with a rewiring probability around
0.1.  Small-world graphs have near-uniform degree but logarithmic
diameter, so their frontiers balloon after a few iterations (Figure 3e)
and the edge-parallel method becomes competitive.
"""

from __future__ import annotations

import numpy as np

from ..build import from_edges
from ..csr import CSRGraph

__all__ = ["watts_strogatz", "smallworld"]


def watts_strogatz(
    n: int, k: int = 10, p: float = 0.1, seed: int = 0, name: str = ""
) -> CSRGraph:
    """Watts-Strogatz ring lattice with random rewiring.

    Parameters
    ----------
    k:
        Each vertex connects to its ``k`` nearest ring neighbours
        (``k`` must be even; ``k // 2`` on each side).
    p:
        Probability of rewiring each lattice edge's far endpoint to a
        uniformly random vertex.
    """
    if k % 2 != 0:
        raise ValueError("k must be even for a symmetric ring lattice")
    if not 0.0 <= p <= 1.0:
        raise ValueError("rewiring probability must be in [0, 1]")
    if n <= 0:
        return CSRGraph(np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64),
                        name=name or "smallworld_empty")
    if k >= n:
        k = max(0, (n - 1) // 2 * 2)
    rng = np.random.default_rng(seed)
    base = np.arange(n, dtype=np.int64)
    src_parts = []
    dst_parts = []
    for off in range(1, k // 2 + 1):
        src_parts.append(base)
        dst_parts.append((base + off) % n)
    if not src_parts:
        return from_edges(np.empty((0, 2), np.int64), num_vertices=n,
                          name=name or f"smallworld_{n}")
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    rewire = rng.random(src.size) < p
    dst = dst.copy()
    dst[rewire] = rng.integers(0, n, size=int(rewire.sum()))
    edges = np.column_stack([src, dst])
    edges = edges[edges[:, 0] != edges[:, 1]]
    return from_edges(edges, num_vertices=n, undirected=True,
                      name=name or f"smallworld_{n}")


def smallworld(n: int = 100_000, seed: int = 0) -> CSRGraph:
    """The paper's ``smallworld`` instance shape (k=10, p=0.1)."""
    return watts_strogatz(n, k=10, p=0.1, seed=seed, name="smallworld")
