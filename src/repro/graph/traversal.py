"""Level-synchronous breadth-first search over :class:`CSRGraph`.

This is the shared traversal engine: a queue-based ("work-efficient" in
the paper's terminology) BFS that records the vertex frontier of every
level.  The BC kernels build on the same expansion primitive but add
shortest-path counting; plain BFS is used by the statistics module
(diameter / eccentricity), the sampling strategy (Algorithm 5 measures
max BFS depth of sampled roots), and the Figure 3 frontier-evolution
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import concat_ranges, sorted_unique
from .csr import CSRGraph

__all__ = [
    "BFSResult",
    "bfs",
    "bfs_distances",
    "frontier_sizes",
    "eccentricity",
]

UNREACHED = -1


@dataclass(frozen=True)
class BFSResult:
    """Outcome of a single-source BFS.

    Attributes
    ----------
    source:
        Root vertex.
    distances:
        ``int64`` array; ``-1`` for unreachable vertices.
    levels:
        List of frontier arrays; ``levels[i]`` holds the vertices at
        distance ``i`` (``levels[0] == [source]``).
    """

    source: int
    distances: np.ndarray
    levels: list

    @property
    def max_depth(self) -> int:
        """Depth of the deepest reached level (0 for a lone root)."""
        return len(self.levels) - 1

    @property
    def num_reached(self) -> int:
        """Number of vertices reached, including the source."""
        return sum(f.size for f in self.levels)

    def vertex_frontier_sizes(self) -> np.ndarray:
        """``|levels[i]|`` per level — the series plotted in Figure 3."""
        return np.array([f.size for f in self.levels], dtype=np.int64)

    def edge_frontier_sizes(self, g: CSRGraph) -> np.ndarray:
        """Out-edges per level — the edge-frontier series of Table I."""
        deg = g.degrees
        return np.array([int(deg[f].sum()) for f in self.levels], dtype=np.int64)


def bfs(g: CSRGraph, source: int) -> BFSResult:
    """Queue-based level-synchronous BFS from ``source``."""
    n = g.num_vertices
    source = int(source)
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    dist = np.full(n, UNREACHED, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    levels = [frontier]
    depth = 0
    indptr, adj = g.indptr, g.adj
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        nbrs = adj[concat_ranges(starts, counts)]
        fresh = nbrs[dist[nbrs] == UNREACHED]
        if fresh.size == 0:
            break
        frontier = sorted_unique(fresh)
        depth += 1
        dist[frontier] = depth
        levels.append(frontier)
    return BFSResult(source=source, distances=dist, levels=levels)


def bfs_distances(g: CSRGraph, source: int) -> np.ndarray:
    """Distances only (convenience wrapper around :func:`bfs`)."""
    return bfs(g, source).distances


def frontier_sizes(g: CSRGraph, source: int) -> np.ndarray:
    """Vertex-frontier size per BFS level from ``source`` (Figure 3 series)."""
    return bfs(g, source).vertex_frontier_sizes()


def eccentricity(g: CSRGraph, source: int) -> int:
    """Max finite BFS distance from ``source`` (its eccentricity within
    its connected component)."""
    return bfs(g, source).max_depth
