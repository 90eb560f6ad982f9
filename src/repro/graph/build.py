"""Builders that turn edge lists / NetworkX graphs into :class:`CSRGraph`."""

from __future__ import annotations

import math
from typing import Sequence

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


def _key_base(edges: np.ndarray) -> int:
    """``max endpoint + 1`` of ``(E, 2)`` int64 ``edges`` (0 when
    empty): the base ``n`` of their int64 keys ``src * n + dst``."""
    if edges.size == 0:
        return 0
    if edges.min() < 0:
        raise GraphStructureError("edge endpoints must be non-negative")
    base = int(edges.max()) + 1
    if base > _MAX_KEYED_VERTICES:
        raise GraphStructureError(
            f"{base} vertices is too many for int64 edge keys "
            f"(max {_MAX_KEYED_VERTICES})")
    return base


def _edge_keys(edges: np.ndarray, base: int, symmetric: bool = False,
               drop_repeats: bool = True,
               drop_loops: bool = True) -> np.ndarray:
    """Sorted int64 keys ``src * base + dst`` of ``edges``, plus ``dst *
    base + src`` when ``symmetric``, optionally without repeated keys
    and self loops.

    The keys are built into one array and sorted in place; a self
    loop's key is set to -1, so the sort puts it first, to be sliced
    off.
    """
    e = edges.shape[0]
    keys = np.empty(2 * e if symmetric else e, dtype=np.int64)
    loops = (edges[:, 0] == edges[:, 1]) if drop_loops else None
    for half, a, b in ((keys[:e], 0, 1), (keys[e:], 1, 0))[:1 + symmetric]:
        np.multiply(edges[:, a], base, out=half)
        half += edges[:, b]
        if drop_loops:
            half[loops] = -1
    keys.sort()
    if drop_loops:
        keys = keys[np.searchsorted(keys, 0):]
    if drop_repeats and keys.size > 1:
        keep = np.empty(keys.size, dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
    return keys


def dedupe_edges(edges: np.ndarray, drop_self_loops: bool = True) -> np.ndarray:
    """Remove duplicate directed edges (and, by default, self loops).

    The result is sorted by (source, target): the edges' int64 keys
    ``src * n + dst`` (``n`` = max endpoint + 1) are deduplicated by
    :func:`from_edges`' key routine and decoded back.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    base = _key_base(edges)
    if base == 0:
        return edges
    src, dst = np.divmod(_edge_keys(edges, base,
                                    drop_loops=drop_self_loops), base)
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

    The edges become one sorted int64 key array ``src * N + dst`` (``N``
    = max endpoint + 1; both directions of an undirected pair), deduped
    by dropping adjacent repeats; ``indptr`` is each source's first key
    and ``adj`` the keys modulo ``N``, computed in place.
    """
    edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if edges.size == 0:
        edges = np.empty((0, 2), dtype=np.int64)
    edges = edges.reshape(-1, 2).astype(np.int64, copy=False)
    base = _key_base(edges)
    n = base if num_vertices is None else int(num_vertices)
    if n < base:
        raise GraphStructureError(
            f"num_vertices={n} is smaller than max endpoint {base - 1}"
        )
    symmetric = undirected and not already_symmetric
    adj = _edge_keys(edges, base, symmetric=symmetric, drop_repeats=dedupe,
                     drop_loops=dedupe)
    # Keys ascend, so source v's first key is the first one >= v * N.
    indptr = np.full(n + 1, adj.size, dtype=np.int64)
    indptr[:base + 1] = np.searchsorted(adj, np.arange(base + 1) * base)
    if base:
        np.remainder(adj, base, out=adj)
    g = CSRGraph(indptr, adj, undirected=undirected, name=name)
    # Symmetrised here and sorted by (source, target) above.
    return g._mark_canonical() if symmetric else g


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
    """Connected-component label per vertex (weakly for directed graphs),
    numbered in the order of each component's lowest vertex.

    Min-root hooking with pointer jumping: each round hooks every root
    to the smallest root across its edges, compresses every vertex onto
    its root and drops the edges whose two ends now share one.  Vertices
    only ever point lower, so each component ends rooted at its lowest
    vertex.  An undirected graph stores each edge both ways; only its
    ``src < dst`` direction is hooked over."""
    parent = np.arange(g.num_vertices, dtype=np.int64)
    src, dst = g.edge_sources(), g.adj
    keep = src < dst if g.undirected else src != dst
    while keep.any():
        src, dst = src[keep], dst[keep]
        np.minimum.at(parent, np.maximum(src, dst), np.minimum(src, dst))
        jumped = parent[parent]
        while not np.array_equal(jumped, parent):
            parent, jumped = jumped, jumped[jumped]
        src, dst = parent[src], parent[dst]
        keep = src != dst
    return (np.cumsum(parent == np.arange(parent.size)) - 1)[parent]


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
    Both give the same bytes, canonical (:meth:`CSRGraph.canonical`)
    when ``g`` is.
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
        sub = from_edges(
            np.column_stack([src, dst]), num_vertices=keep.size,
            undirected=g.undirected, dedupe=True, name=g.name,
            already_symmetric=True,
        )
    else:
        counts = np.bincount(src, minlength=keep.size).astype(np.int64)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        sub = CSRGraph(indptr, dst, undirected=g.undirected, name=g.name)
    return sub._mark_canonical() if g.canonical() else sub


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
