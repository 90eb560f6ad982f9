"""Compressed Sparse Row graph container.

The paper (like essentially all GPU graph work) stores graphs in CSR
format: an ``indptr`` offsets array of length ``n + 1`` and a
concatenated adjacency array ``adj`` of length equal to the number of
*directed* edges.  Undirected graphs are stored symmetrised, i.e. each
undirected edge {u, v} appears twice (u->v and v->u), exactly as the
reference CUDA implementation does.

:class:`CSRGraph` is immutable after construction; all algorithms in
this package treat it as read-only shared state, which is what makes
the coarse-grained parallelism over BFS roots safe.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import GraphStructureError

__all__ = ["CSRGraph"]


@dataclass(frozen=True)
class CSRGraph:
    """An immutable CSR graph.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; neighbours of
        vertex ``v`` are ``adj[indptr[v]:indptr[v + 1]]``.
    adj:
        ``int64`` array of neighbour ids (directed edge targets).
    undirected:
        If True the graph is a symmetrised undirected graph and
        :attr:`num_edges` reports the number of *undirected* edges
        (``len(adj) // 2``), matching the paper's ``m`` in the TEPS
        formula (Eq. 4).  If False, :attr:`num_edges` is ``len(adj)``.
    name:
        Optional human-readable label (used by experiment tables).
    """

    indptr: np.ndarray
    adj: np.ndarray
    undirected: bool = True
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        adj = np.ascontiguousarray(self.adj, dtype=np.int64)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "adj", adj)
        if indptr.ndim != 1 or adj.ndim != 1:
            raise GraphStructureError("indptr and adj must be 1-D arrays")
        if indptr.size < 1:
            raise GraphStructureError("indptr must have at least one entry")
        if indptr[0] != 0:
            raise GraphStructureError("indptr[0] must be 0")
        if indptr[-1] != adj.size:
            raise GraphStructureError(
                f"indptr[-1] ({int(indptr[-1])}) must equal len(adj) ({adj.size})"
            )
        if indptr.size > 1 and np.any(np.diff(indptr) < 0):
            raise GraphStructureError("indptr must be non-decreasing")
        n = indptr.size - 1
        if adj.size and (adj.min() < 0 or adj.max() >= n):
            raise GraphStructureError("adjacency targets out of range")
        if self.undirected and adj.size % 2 != 0:
            raise GraphStructureError(
                "undirected graph must have an even number of directed edges"
            )
        indptr.setflags(write=False)
        adj.setflags(write=False)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of edges ``m`` (undirected edges when :attr:`undirected`)."""
        return self.adj.size // 2 if self.undirected else self.adj.size

    @property
    def num_directed_edges(self) -> int:
        """Length of the adjacency array (always the directed count)."""
        return self.adj.size

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of each vertex (read-only view arithmetic, O(n))."""
        return np.diff(self.indptr)

    @property
    def max_degree(self) -> int:
        """Maximum out-degree (0 for an edgeless graph)."""
        if self.num_vertices == 0:
            return 0
        return int(self.degrees.max(initial=0))

    def digest(self) -> str:
        """SHA-256 content digest of the graph structure.

        Covers ``indptr``, ``adj`` and directedness — two graphs share a
        digest iff they are structurally identical.  The service layer
        keys its graph registry, circuit breaker and content-addressed
        result cache on this, so it is computed once and cached (the
        arrays are frozen read-only at construction).
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            h = hashlib.sha256()
            h.update(b"repro.csr/v1")
            h.update(b"u" if self.undirected else b"d")
            h.update(self.indptr.tobytes())
            h.update(self.adj.tobytes())
            cached = h.hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    def canonical(self) -> bool:
        """Whether this is the canonical CSR of an undirected graph:
        :attr:`undirected`, every row non-decreasing and the adjacency
        its own transpose (each directed edge ``u -> v`` is matched by
        a ``v -> u``, duplicates included).

        The forward sweep may scan such a graph bottom-up and still
        reproduce the top-down sweep's bytes (DESIGN section 5,
        "Direction-optimizing sweep").  ``from_edges`` on undirected
        edges and ``induced_subgraph`` of a canonical graph mark their
        output when they build it; any other graph is checked once (an
        O(m) row scan and one sort of ``m`` edge keys) and the answer
        is cached like :meth:`digest`.
        """
        cached = self.__dict__.get("_canonical")
        if cached is None:
            cached = (self.undirected and _rows_sorted(self)
                      and _symmetric(self, rows_sorted=True))
            object.__setattr__(self, "_canonical", cached)
        return cached

    def _mark_canonical(self) -> "CSRGraph":
        """Record that a builder produced canonical CSR (see
        :meth:`canonical`); returns ``self``."""
        object.__setattr__(self, "_canonical", True)
        return self

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only adjacency slice of vertex ``v``."""
        v = int(v)
        if not 0 <= v < self.num_vertices:
            raise IndexError(f"vertex {v} out of range [0, {self.num_vertices})")
        return self.adj[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Out-degree of vertex ``v``."""
        v = int(v)
        if not 0 <= v < self.num_vertices:
            raise IndexError(f"vertex {v} out of range [0, {self.num_vertices})")
        return int(self.indptr[v + 1] - self.indptr[v])

    # ------------------------------------------------------------------
    # Derived arrays used by the edge-parallel kernels
    # ------------------------------------------------------------------
    def edge_sources(self) -> np.ndarray:
        """Source vertex of every directed edge, aligned with :attr:`adj`.

        This is exactly the auxiliary array an edge-parallel CUDA kernel
        precomputes so each thread can look up both endpoints of "its"
        edge (COO row array).
        """
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees)

    def isolated_vertices(self) -> np.ndarray:
        """Vertices with no outgoing edges.

        The paper notes the Jia et al. reference code cannot read graphs
        containing isolated vertices, and that the kron generator emits
        many of them — we keep them addressable so that behaviour can be
        modelled faithfully.
        """
        return np.flatnonzero(self.degrees == 0)

    # ------------------------------------------------------------------
    # Conversions / dunder methods
    # ------------------------------------------------------------------
    def to_edge_list(self) -> np.ndarray:
        """Return an ``(E, 2)`` array of directed edges (u, v)."""
        return np.column_stack([self.edge_sources(), self.adj])

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "undirected" if self.undirected else "directed"
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<CSRGraph{label} {kind} n={self.num_vertices} m={self.num_edges}"
            f" max_deg={self.max_degree}>"
        )

    def with_name(self, name: str) -> "CSRGraph":
        """Return a copy of this graph carrying a different label."""
        g = CSRGraph(self.indptr, self.adj, undirected=self.undirected, name=name)
        if "_canonical" in self.__dict__:
            object.__setattr__(g, "_canonical", self._canonical)
        return g

    def memory_footprint_bytes(self) -> int:
        """Bytes needed to hold the CSR arrays (what a device copy costs)."""
        return int(self.indptr.nbytes + self.adj.nbytes)


def _rows_sorted(g: CSRGraph) -> bool:
    """Whether every adjacency row of ``g`` is non-decreasing."""
    adj = g.adj
    if adj.size < 2:
        return True
    # A descent is allowed only where a new row starts.
    descents = np.flatnonzero(adj[1:] < adj[:-1]) + 1
    return bool(np.all(np.isin(descents, g.indptr)))


def _symmetric(g: CSRGraph, rows_sorted: bool) -> bool:
    """Whether the adjacency of ``g`` is its own transpose, as a
    multiset of directed edges: the sorted ``src * n + dst`` keys equal
    the sorted ``dst * n + src`` keys.  With ``rows_sorted`` the former
    are sorted already."""
    n = g.num_vertices
    src = g.edge_sources()
    forward = src * n + g.adj
    if not rows_sorted:
        forward.sort()
    backward = g.adj * n + src
    backward.sort()
    return bool(np.array_equal(forward, backward))
