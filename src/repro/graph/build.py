"""Builders that turn edge lists / NetworkX graphs into :class:`CSRGraph`."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .._util import sorted_unique
from ..errors import GraphStructureError
from .csr import CSRGraph

__all__ = [
    "from_edges",
    "from_networkx",
    "to_networkx",
    "symmetrize_edges",
    "dedupe_edges",
    "largest_connected_component",
    "relabel",
    "induced_subgraph",
]


def symmetrize_edges(edges: np.ndarray) -> np.ndarray:
    """Return edges plus their reverses (``(E, 2)`` -> ``(2E, 2)``)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return np.concatenate([edges, edges[:, ::-1]], axis=0)


#: Largest vertex count whose edge keys ``src * n + dst`` fit in int64.
_MAX_KEYED_VERTICES = math.isqrt(2**63 - 1)


def dedupe_edges(edges: np.ndarray, drop_self_loops: bool = True) -> np.ndarray:
    """Remove duplicate directed edges (and, by default, self loops).

    The result is sorted by (source, target): each edge is encoded as
    the int64 key ``src * n + dst`` (``n`` = max endpoint + 1), the keys
    are deduplicated by sorting and decoded back.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size == 0:
        return edges.reshape(0, 2)
    if edges.min() < 0:
        raise GraphStructureError("edge endpoints must be non-negative")
    n = int(edges.max()) + 1
    if n > _MAX_KEYED_VERTICES:
        raise GraphStructureError(
            f"{n} vertices is too many for int64 edge keys "
            f"(max {_MAX_KEYED_VERTICES})")
    if drop_self_loops:
        edges = edges[edges[:, 0] != edges[:, 1]]
    keys = sorted_unique(edges[:, 0] * n + edges[:, 1])
    src, dst = np.divmod(keys, n)
    return np.column_stack([src, dst])


def from_edges(
    edges,
    num_vertices: int | None = None,
    undirected: bool = True,
    dedupe: bool = True,
    name: str = "",
    already_symmetric: bool = False,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an ``(E, 2)`` array / iterable of pairs.

    Parameters
    ----------
    edges:
        Edge pairs.  For ``undirected=True`` each pair is treated as one
        undirected edge and stored in both directions.
    num_vertices:
        Total vertex count; defaults to ``max(edges) + 1``.  Providing it
        explicitly allows trailing isolated vertices (which the kron
        generator produces in quantity).
    dedupe:
        Drop duplicate edges and self loops before building.  The BC
        algorithms are only defined on simple graphs, so this is on by
        default.
    """
    edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if edges.size == 0:
        edges = np.empty((0, 2), dtype=np.int64)
    edges = edges.reshape(-1, 2).astype(np.int64, copy=False)
    if edges.size and edges.min() < 0:
        raise GraphStructureError("edge endpoints must be non-negative")
    inferred = int(edges.max()) + 1 if edges.size else 0
    n = inferred if num_vertices is None else int(num_vertices)
    if n < inferred:
        raise GraphStructureError(
            f"num_vertices={n} is smaller than max endpoint {inferred - 1}"
        )
    if undirected and not already_symmetric:
        edges = symmetrize_edges(edges)
    # CSR build: sort by source, then slice.  Deduped edges come out
    # sorted by (source, target) already.
    if dedupe:
        edges = dedupe_edges(edges)
    elif edges.size:
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    counts = np.bincount(edges[:, 0], minlength=n).astype(np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return CSRGraph(indptr, edges[:, 1].copy(), undirected=undirected, name=name)


def from_networkx(nxg, name: str = "") -> CSRGraph:
    """Convert a NetworkX graph (nodes relabelled to 0..n-1 in sorted order)."""
    import networkx as nx

    nodes = sorted(nxg.nodes())
    index = {u: i for i, u in enumerate(nodes)}
    undirected = not nxg.is_directed()
    edges = np.array(
        [(index[u], index[v]) for u, v in nxg.edges()], dtype=np.int64
    ).reshape(-1, 2)
    return from_edges(
        edges, num_vertices=len(nodes), undirected=undirected,
        name=name or str(nxg.name or ""),
    )


def to_networkx(g: CSRGraph):
    """Convert a :class:`CSRGraph` to a NetworkX graph (for cross-checks)."""
    import networkx as nx

    nxg = nx.Graph() if g.undirected else nx.DiGraph()
    nxg.add_nodes_from(range(g.num_vertices))
    src = g.edge_sources()
    if g.undirected:
        mask = src <= g.adj  # keep one direction of each symmetric pair
        nxg.add_edges_from(zip(src[mask].tolist(), g.adj[mask].tolist()))
    else:
        nxg.add_edges_from(zip(src.tolist(), g.adj.tolist()))
    return nxg


def _component_labels(g: CSRGraph) -> np.ndarray:
    """Connected-component label per vertex via scipy (weakly for directed)."""
    import scipy.sparse as sp
    import scipy.sparse.csgraph as csgraph

    n = g.num_vertices
    mat = sp.csr_matrix(
        (np.ones(g.adj.size, dtype=np.int8), g.adj, g.indptr), shape=(n, n)
    )
    _, labels = csgraph.connected_components(mat, directed=not g.undirected,
                                             connection="weak")
    return labels


def largest_connected_component(g: CSRGraph) -> CSRGraph:
    """Return the induced subgraph on the largest (weak) component."""
    if g.num_vertices == 0:
        return g
    labels = _component_labels(g)
    big = np.argmax(np.bincount(labels))
    keep = np.flatnonzero(labels == big)
    return induced_subgraph(g, keep)


def induced_subgraph(g: CSRGraph, vertices: Sequence[int]) -> CSRGraph:
    """Induced subgraph on ``vertices`` (relabelled to 0..k-1, sorted order).

    The kept rows are already in CSR order: sources ascend and the
    relabelling preserves order.  So when every kept row is strictly
    increasing and loop-free (every graph :func:`from_edges` builds),
    the CSR is built from them directly; otherwise the edges go through
    :func:`from_edges`, which sorts, drops repeats and self loops.
    Both give the same bytes.
    """
    keep = sorted_unique(np.asarray(vertices, dtype=np.int64))
    if keep.size and (keep[0] < 0 or keep[-1] >= g.num_vertices):
        raise IndexError("vertices out of range")
    remap = np.full(g.num_vertices, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    src = remap[g.edge_sources()]
    dst = remap[g.adj]
    mask = (src >= 0) & (dst >= 0)
    src, dst = src[mask], dst[mask]
    same_row = src[1:] == src[:-1]
    if np.any(src == dst) or np.any(same_row & (dst[1:] <= dst[:-1])):
        return from_edges(
            np.column_stack([src, dst]), num_vertices=keep.size,
            undirected=g.undirected, dedupe=True, name=g.name,
            already_symmetric=True,
        )
    counts = np.bincount(src, minlength=keep.size).astype(np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return CSRGraph(indptr, dst, undirected=g.undirected, name=g.name)


def relabel(g: CSRGraph, permutation: Sequence[int]) -> CSRGraph:
    """Apply a vertex permutation: new id of vertex ``v`` is ``permutation[v]``.

    Used by the property tests to check BC scores are equivariant under
    relabelling.
    """
    perm = np.asarray(permutation, dtype=np.int64)
    n = g.num_vertices
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise GraphStructureError("permutation must be a bijection on 0..n-1")
    src = perm[g.edge_sources()]
    dst = perm[g.adj]
    return from_edges(
        np.column_stack([src, dst]), num_vertices=n, undirected=g.undirected,
        dedupe=False, name=g.name, already_symmetric=True,
    )
