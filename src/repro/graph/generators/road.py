"""Road-network stand-in for ``luxembourg.osm``.

Road networks are nearly planar, have average degree barely above 2
(long chains of degree-2 vertices between junctions), tiny max degree
and *enormous* diameter (1336 for luxembourg.osm at only 114k
vertices).  We reproduce that shape with a two-step construction:

1. a random spanning tree of a sqrt(n) x sqrt(n) grid (random-weight
   Kruskal), which yields m = n - 1 and a very large diameter;
2. a small fraction of extra grid edges re-inserted to create the loops
   real road networks have (bringing m/n to ~1.05, matching
   luxembourg.osm's 119,666 / 114,599).
"""

from __future__ import annotations

import math

import numpy as np

from ..build import from_edges
from ..csr import CSRGraph

__all__ = ["road_network"]


class _DisjointSet:
    """Array-based union-find with path halving (used by Kruskal)."""

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _grid_edges(w: int, h: int) -> np.ndarray:
    """All horizontal+vertical edges of a ``w x h`` grid (ids row-major)."""
    ids = np.arange(w * h, dtype=np.int64).reshape(h, w)
    horiz = np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])
    vert = np.column_stack([ids[:-1, :].ravel(), ids[1:, :].ravel()])
    return np.concatenate([horiz, vert], axis=0)


def road_network(
    n: int, extra_edge_fraction: float = 0.05, seed: int = 0, name: str = ""
) -> CSRGraph:
    """Generate a road-network-like graph with about ``n`` vertices.

    ``extra_edge_fraction`` controls the loop density: 0 gives a tree,
    luxembourg.osm corresponds to roughly 0.05 extra edges per vertex.
    """
    if n <= 1:
        return CSRGraph(np.zeros(max(n, 0) + 1 if n > 0 else 1, dtype=np.int64),
                        np.empty(0, dtype=np.int64), name=name or "road_empty")
    if not 0.0 <= extra_edge_fraction <= 1.0:
        raise ValueError("extra_edge_fraction must be in [0, 1]")
    w = max(2, int(math.sqrt(n)))
    h = max(2, (n + w - 1) // w)
    total = w * h
    rng = np.random.default_rng(seed)
    grid = _grid_edges(w, h)
    order = rng.permutation(grid.shape[0])
    dsu = _DisjointSet(total)
    tree_rows = []
    spare_rows = []
    for idx in order:
        u, v = int(grid[idx, 0]), int(grid[idx, 1])
        if dsu.union(u, v):
            tree_rows.append(idx)
        else:
            spare_rows.append(idx)
    keep = list(tree_rows)
    extra = int(extra_edge_fraction * total)
    keep.extend(spare_rows[:extra])
    edges = grid[np.asarray(keep, dtype=np.int64)]
    g = from_edges(edges, num_vertices=total, undirected=True,
                   name=name or f"road_{total}")
    return g
