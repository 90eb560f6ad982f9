"""Structural statistics used by Table II and by strategy selection.

The columns of the paper's Table II are: vertices, edges, max degree,
diameter, description.  Exact diameters of million-vertex graphs are
expensive, so we provide both an exact (all-sources, small graphs only)
computation and the standard double-sweep / multi-sample lower-bound
estimate that is accurate on the graph families used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .build import _component_labels
from .csr import CSRGraph
from .traversal import bfs

__all__ = [
    "GraphStats",
    "degree_histogram",
    "connected_component_sizes",
    "exact_diameter",
    "estimate_diameter",
    "graph_stats",
]


@dataclass(frozen=True)
class GraphStats:
    """Row of Table II for one graph."""

    name: str
    num_vertices: int
    num_edges: int
    max_degree: int
    diameter: int
    diameter_exact: bool
    num_components: int
    largest_component: int
    description: str = ""


def degree_histogram(g: CSRGraph) -> np.ndarray:
    """``hist[d]`` = number of vertices with out-degree ``d``."""
    deg = g.degrees
    if deg.size == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(deg).astype(np.int64)


def connected_component_sizes(g: CSRGraph) -> np.ndarray:
    """Sizes of (weak) connected components, descending."""
    sizes = np.bincount(_component_labels(g)).astype(np.int64)
    return np.sort(sizes)[::-1]


def exact_diameter(g: CSRGraph) -> int:
    """Exact diameter of the largest component (O(nm): small graphs only)."""
    if g.num_vertices == 0:
        return 0
    best = 0
    for v in range(g.num_vertices):
        best = max(best, bfs(g, v).max_depth)
    return best


def estimate_diameter(g: CSRGraph, samples: int = 8, seed: int = 0) -> int:
    """Double-sweep diameter lower bound from several random starts.

    For trees, meshes and road networks the double sweep is exact or
    near-exact; for small-world graphs it is within one or two of the true
    diameter — good enough for the structural classification the paper's
    strategies rely on.
    """
    n = g.num_vertices
    if n == 0:
        return 0
    rng = np.random.default_rng(seed)
    deg = g.degrees
    candidates = np.flatnonzero(deg > 0)
    if candidates.size == 0:
        return 0
    best = 0
    for _ in range(max(1, samples)):
        start = int(rng.choice(candidates))
        first = bfs(g, start)
        if first.max_depth == 0:
            continue
        # Sweep again from a vertex on the deepest level.
        far = int(first.levels[-1][0])
        second = bfs(g, far)
        best = max(best, first.max_depth, second.max_depth)
    return best


def graph_stats(
    g: CSRGraph,
    exact: bool | None = None,
    diameter_samples: int = 8,
    seed: int = 0,
    description: str = "",
) -> GraphStats:
    """Compute a Table II row for ``g``.

    ``exact`` defaults to True for graphs with at most 2000 vertices.
    """
    if exact is None:
        exact = g.num_vertices <= 2000
    comp = connected_component_sizes(g)
    diam = exact_diameter(g) if exact else estimate_diameter(
        g, samples=diameter_samples, seed=seed
    )
    return GraphStats(
        name=g.name or "graph",
        num_vertices=g.num_vertices,
        num_edges=g.num_edges,
        max_degree=g.max_degree,
        diameter=diam,
        diameter_exact=bool(exact),
        num_components=int(comp.size),
        largest_component=int(comp[0]) if comp.size else 0,
        description=description,
    )
