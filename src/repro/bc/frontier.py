"""Vectorised forward sweep: level-synchronous BFS with path counting.

This is Stage 1 of the paper (Algorithm 2) expressed as NumPy array
operations.  One call to :func:`forward_sweep` performs what the CUDA
kernel does across its while-loop: per level, gather the concatenated
adjacency lists of the frontier, discover unvisited vertices (the
atomicCAS of line 5 collapses to a mask + sorted unique), and accumulate
shortest-path counts into successors (the atomicAdd of line 9 collapses
to ``np.add.at``).  The sweep also keeps each level's shortest-path DAG
edges, so the backward stage (:mod:`repro.bc.accumulation`) need not
gather the adjacency lists a second time.

A level is scanned from whichever side inspects fewer edges (Beamer et
al.'s direction-optimizing BFS): top-down over the frontier's
adjacency, or, once the unreached side is the smaller, bottom-up over
the adjacency of every unreached vertex, looking for neighbours on the
frontier.  Bottom-up runs only on canonical CSR
(:meth:`~repro.graph.csr.CSRGraph.canonical`).  There it finds the
DAG edges of a top-down scan, listed successor-major instead of
owner-major.  Either way each owner's successors and each successor's
owners ascend, the only orders the path counting and the backward
stage's sums see, so both directions give the same values (DESIGN
section 5, "Direction-optimizing sweep").  The executor's direction is
invisible to the cost model, which charges Algorithm 2's top-down work
either way.

All strategy variants produce *identical* values — they differ in how
threads are assigned to this work, which is what the cost model (in
:mod:`repro.gpusim.cost`) charges for.  Literal re-implementations of
the edge-parallel and vertex-parallel traversal orders live in their
strategy modules and are tested for value-equality against this engine.

:func:`sweep_group` runs a group of roots in lockstep, the way the
paper's coarse-grained layer runs one root per SM: every level advances
all of the group's roots with one set of array operations.  State is
flat ``(k * n)`` arrays keyed by ``row * n + vertex``, so row ``r``'s
values are exactly those of a one-root sweep from ``sources[r]``.
:func:`forward_sweep` is the one-root case.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .._util import concat_ranges, sorted_unique, unique_of_sorted
from ..graph.csr import CSRGraph
from ..observability.registry import NULL_REGISTRY

__all__ = [
    "ForwardGroup",
    "ForwardResult",
    "GROUP_CELLS",
    "GROUP_KEYS",
    "GROUP_LEVEL_EDGES",
    "SIGMA_RESCALE_LIMIT",
    "forward_sweep",
    "group_width",
    "sweep_group",
]

UNREACHED = -1

#: Per-level sigma magnitudes beyond this trigger rescaling.  Path
#: counts grow combinatorially with BFS depth (a 500-level mesh easily
#: exceeds float64 range), but Brandes's dependency formula only ever
#: uses ratios of sigmas on *adjacent* levels, so each level can be
#: renormalised independently as long as the scale factor is recorded.
SIGMA_RESCALE_LIMIT = 1e100

#: Keys of one lockstep group: :func:`group_width` runs at most
#: ``GROUP_KEYS // n`` roots together.  Grouping pays where levels are
#: many and small (road networks, meshes, folded cores) and NumPy's
#: per-call overhead dominates.  Past 64k keys it saves little: 16
#: roots of the 16k-vertex delaunay core run at most 3% faster in
#: groups of 8 than of 4, and 7-15% slower in one group of 16.
GROUP_KEYS = 1 << 16

#: Vertex-plus-edge cells of one lockstep group: at most
#: ``GROUP_CELLS // (n + m)`` roots, which bounds a group's memory (its
#: DAG edges and per-key state grow with ``k * (n + m)``).
GROUP_CELLS = 1 << 22

#: Edges one level of a lockstep group may gather: at most
#: ``GROUP_LEVEL_EDGES // two_hop`` roots, where ``two_hop`` counts the
#: edges two hops from the highest-degree vertex (its neighbours'
#: degrees), a root's widest level on a graph with a hub.  A group
#: would gather ``k`` such levels at once, out of cache, so a graph
#: with a large hub runs one root at a time.  All three budgets are
#: measured in DESIGN section 5 ("Lockstep roots",
#: ``benchmarks/lockstep_widths.py``).
GROUP_LEVEL_EDGES = 1 << 18


@dataclass
class ForwardResult:
    """Stage-1 output for one root.

    Attributes
    ----------
    source: root vertex.
    distances: BFS depth per vertex (-1 if unreachable) — the ``d`` array.
    sigma: shortest-path counts from the root — the ``sigma`` array.
        Stored per-level *rescaled*: the true count of a vertex at depth
        k is ``sigma[v] * prod(level_scales[:k + 1])``.  For shallow
        traversals every scale is 1.0 and ``sigma`` is exact.
    levels: frontier per depth; concatenated they form the paper's ``S``
        array and their offsets the ``ends`` array.
    level_scales: rescaling factor applied at each depth (>= 1.0).
    dag: per depth, the ``(owner, succ)`` shortest-path DAG edges leaving
        that level: ``owner`` is the tail's position in
        ``levels[depth]``, ``succ`` the head's vertex id at depth + 1.
        A top-down level lists them owner-major (in adjacency order), a
        bottom-up one successor-major; either way each owner's
        successors and each successor's owners ascend.

    A row of a :class:`ForwardGroup` (:meth:`ForwardGroup.row`) carries
    ``source``, ``distances``, ``sigma`` and ``level_scales`` only;
    its ``levels`` and ``dag`` are ``None``.
    """

    source: int
    distances: np.ndarray
    sigma: np.ndarray
    levels: list
    level_scales: np.ndarray = None
    dag: list = None

    @property
    def max_depth(self) -> int:
        return len(self.levels) - 1

    def ends(self) -> np.ndarray:
        """The paper's ``ends`` array: CSR-style offsets of each depth's
        segment within the concatenated visit order ``S``."""
        sizes = [lv.size for lv in self.levels]
        return np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)

    def s_array(self) -> np.ndarray:
        """The paper's ``S`` array: all visited vertices in depth order."""
        if not self.levels:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self.levels)


def group_width(g: CSRGraph) -> int:
    """Roots per lockstep group on ``g``, at least one: the fewest that
    :data:`GROUP_KEYS`, :data:`GROUP_CELLS` and :data:`GROUP_LEVEL_EDGES`
    allow (``m`` counts directed edges)."""
    n, m = g.num_vertices, g.num_directed_edges
    two_hop = 0
    if m:
        degree = g.degrees
        hub = int(degree.argmax())
        two_hop = int(degree.take(g.adj[g.indptr[hub]:g.indptr[hub + 1]])
                      .sum())
    return max(1, min(GROUP_KEYS // max(1, n), GROUP_CELLS // max(1, n + m),
                      GROUP_LEVEL_EDGES // max(1, two_hop)))


@dataclass
class ForwardGroup:
    """Stage-1 output for a group of ``k`` roots swept in lockstep.

    Attributes
    ----------
    sources: the roots, one per row (duplicates allowed).
    num_vertices: ``n``; vertex ``v`` of row ``r`` has key ``r * n + v``.
    distances, sigma: flat ``(k * n)`` arrays, row-major; row ``r`` is
        what :func:`forward_sweep` returns for ``sources[r]``.
    levels: per group depth, the sorted keys of every row's frontier at
        that depth (a row whose traversal ended is absent).
    dag: per group depth, ``(owner, succ)``: ``owner`` a position in
        ``levels[depth]``, ``succ`` the successor's key, in the order of
        :attr:`ForwardResult.dag`.
    level_scales: ``(k, len(levels))`` rescaling factors; entries past a
        row's last depth are 1.0.
    """

    sources: np.ndarray
    num_vertices: int
    distances: np.ndarray
    sigma: np.ndarray
    levels: list
    dag: list
    level_scales: np.ndarray

    @property
    def size(self) -> int:
        """Number of roots ``k``."""
        return int(self.sources.size)

    @functools.cached_property
    def frontier_sizes(self) -> np.ndarray:
        """``(k, len(levels))`` frontier size of every row at every
        depth (zero past a row's last depth)."""
        if self.size == 1:
            return np.array([[lv.size for lv in self.levels]], dtype=np.int64)
        # A level's keys are sorted, so row r's lie in [r * n, (r + 1) * n).
        bounds = np.arange(self.size + 1) * self.num_vertices
        ends = np.array([lv.searchsorted(bounds) for lv in self.levels])
        return np.diff(ends, axis=1).T.copy()

    @functools.cached_property
    def depths(self) -> list:
        """Per row, its number of depths (``max_depth + 1``)."""
        return np.count_nonzero(self.frontier_sizes, axis=1).tolist()

    def ratio_scales(self) -> list:
        """Per depth but the last, the ``sigma_ratio_scale`` the backward
        stage applies to ``levels[depth]``: the inverse of the next
        depth's rescaling factor, one value per key when the group's
        rows were rescaled differently."""
        inv = 1.0 / self.level_scales[:, 1:]
        if inv.shape[0] == 1:
            return list(inv[0])
        if np.all(inv == 1.0):
            return [1.0] * inv.shape[1]
        return [1.0 if np.all(col == 1.0)
                else col[level // self.num_vertices]
                for level, col in zip(self.levels, inv.T)]

    def by_key(self, values: np.ndarray | None) -> np.ndarray | None:
        """Per-vertex ``values`` indexable by key: repeated for every
        row (``None`` stays ``None``)."""
        if values is None or self.size == 1:
            return values
        return np.tile(values, self.size)

    def row(self, r: int) -> ForwardResult:
        """Row ``r`` as a :class:`ForwardResult` over views of the group
        state (no ``levels``/``dag``)."""
        n = self.num_vertices
        return ForwardResult(source=int(self.sources[r]),
                             distances=self.distances[r * n:(r + 1) * n],
                             sigma=self.sigma[r * n:(r + 1) * n],
                             levels=None,
                             level_scales=self.level_scales[r, :self.depths[r]])


def _rescale(sigma: np.ndarray, q_next: np.ndarray, vals: np.ndarray,
             n: int, k: int):
    """Keep the new level's sigma inside float64 range (see
    :data:`SIGMA_RESCALE_LIMIT`): each row whose largest count exceeds
    the limit is divided by it.  ``vals`` is ``sigma[q_next]``, whose
    largest entry exceeds the limit.  Returns the level's rescaled
    ``vals`` and its factor per row (one number for one root)."""
    if k == 1:
        mx = np.maximum.reduce(vals)
        vals = vals / mx
        sigma[q_next] = vals
        return vals, mx
    # Segmented max over the sorted keys: each row's keys are one run.
    rows = q_next // n
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    seg_max = np.maximum.reduceat(vals, first)
    factor = np.where(seg_max > SIGMA_RESCALE_LIMIT, seg_max, 1.0)
    vals = vals / factor.repeat(np.diff(first, append=vals.size))
    sigma[q_next] = vals
    out = np.ones(k)
    out[rows[first]] = factor
    return vals, out


def _bottom_up(g: CSRGraph, d: np.ndarray, depth: int, frontier: np.ndarray,
               k: int):
    """One level's DAG edges found bottom-up: every unreached key scans
    its adjacency for neighbours at ``depth``.  Returns ``(owner,
    succ)`` successor-major: by ascending ``succ``, then by adjacency
    position, which on canonical CSR is ascending owner."""
    n = g.num_vertices
    unreached = np.flatnonzero(d == UNREACHED)
    verts = unreached if k == 1 else unreached % n
    counts = g.indptr[verts + 1] - g.indptr[verts]
    nbrs = g.adj[concat_ranges(g.indptr[verts], counts)]
    if k > 1:
        nbrs += (unreached - verts).repeat(counts)
    hit = (d.take(nbrs) == depth).nonzero()[0]
    pos = np.empty(k * n, dtype=np.int64)
    pos[frontier] = np.arange(frontier.size)
    return pos.take(nbrs.take(hit)), unreached.repeat(counts).take(hit)


def sweep_group(g: CSRGraph, sources, metrics=None) -> ForwardGroup:
    """Run the shortest-path calculation stage from every root of
    ``sources`` in lockstep, one level of all roots per step.

    Per level, the frontiers of all rows are gathered, discovered and
    path-counted with one set of array operations over ``row * n +
    vertex`` keys; each row's values and rescaling factors are
    byte-identical to a one-root sweep from that root, and so are its
    DAG edges up to the level's direction (see
    :attr:`ForwardResult.dag`).  With one root the keys are the vertex
    ids and no key arithmetic is done.

    Each level scans whichever side inspects fewer edges: the
    frontier's adjacency (top-down) or, on a canonical graph
    (:meth:`~repro.graph.csr.CSRGraph.canonical`), that of every
    unreached key (bottom-up, :func:`_bottom_up`), which it picks when
    ``unvisited_edges + k * n < frontier_edges``.  Both give the same
    DAG edges, top-down owner-major and bottom-up successor-major, and
    the same values.

    ``metrics`` (optional :class:`~repro.observability.MetricsRegistry`)
    records each root's ``frontier.*`` totals, in root order.
    """
    if metrics is None:
        metrics = NULL_REGISTRY
    n = g.num_vertices
    sources = np.asarray(sources, dtype=np.int64).ravel()
    k = sources.size
    if k == 0:
        raise ValueError("sweep_group needs at least one source")
    bad = (sources < 0) | (sources >= n)
    if np.any(bad):
        raise IndexError(f"source {int(sources[bad][0])} out of range [0, {n})")
    indptr, adj = g.indptr, g.adj
    degree = indptr[1:] - indptr[:-1]
    kn = k * n
    bottom_up = g.canonical()
    unvisited = k * adj.size  # edges of the still-unreached keys
    d = np.full(kn, UNREACHED, dtype=np.int64)
    sigma = np.zeros(kn, dtype=np.float64)
    verts = sources
    # Each frontier key's row offset ``row * n`` (None for one root).
    offsets = None if k == 1 else np.arange(0, kn, n, dtype=np.int64)
    frontier = sources if offsets is None else sources + offsets
    d[frontier] = 0
    sigma[frontier] = 1.0
    frontier_sigma = sigma.take(frontier)
    levels = [frontier]
    scales = [None]
    dag = []
    depth = 0
    # One step per level, in ndarray methods: at hundreds of small
    # levels per root, NumPy's per-call overhead is the sweep's cost.
    while True:
        counts = degree.take(verts)
        ends = counts.cumsum()
        frontier_edges = int(ends[-1])
        unvisited -= frontier_edges
        up = bottom_up and unvisited + kn < frontier_edges
        if up:
            owner, succ = _bottom_up(g, d, depth, frontier, k)
        else:
            nbrs = adj.take(concat_ranges(indptr.take(verts), counts, ends))
            if offsets is not None:
                nbrs += offsets.repeat(counts)
            # Level-synchronous: no vertex is at depth + 1 yet, so the
            # still-unreached neighbours are exactly the successors the
            # backward stage would find (the DAG edges into depth + 1).
            hit = (d.take(nbrs) == UNREACHED).nonzero()[0]
            succ = nbrs.take(hit)
            owner = np.arange(frontier.size).repeat(counts).take(hit)
        dag.append((owner, succ))
        if succ.size == 0:
            break
        # Discovery: first touch sets the depth (atomicCAS, line 5).
        # Bottom-up successors come sorted, so the next frontier is one
        # key per run.  A top-down successor list longer than an eighth
        # of the keys is cheaper to mark and scan densely than to sort.
        if not up and succ.size > kn >> 3:
            d[succ] = depth + 1
            q_next = (d == depth + 1).nonzero()[0]
        else:
            q_next = unique_of_sorted(succ) if up else sorted_unique(succ)
            d[q_next] = depth + 1
        # Path counting over the DAG edges (atomicAdd, line 9).
        np.add.at(sigma, succ, frontier_sigma.take(owner))
        # Level-synchronous => sigma of depth+1 is final here.
        frontier_sigma = sigma.take(q_next)
        factors = None
        if np.maximum.reduce(frontier_sigma) > SIGMA_RESCALE_LIMIT:
            frontier_sigma, factors = _rescale(sigma, q_next, frontier_sigma,
                                               n, k)
        scales.append(factors)
        if offsets is None:
            verts = q_next
        else:
            verts = q_next % n
            offsets = q_next - verts
        frontier = q_next
        depth += 1
        levels.append(frontier)
    level_scales = np.ones((k, len(levels)), dtype=np.float64)
    for col, factors in enumerate(scales):
        if factors is not None:
            level_scales[:, col] = factors
    grp = ForwardGroup(sources=sources, num_vertices=n, distances=d,
                       sigma=sigma, levels=levels, dag=dag,
                       level_scales=level_scales)
    if metrics.enabled:
        visited = grp.frontier_sizes.sum(axis=1).tolist()
        depths = grp.depths
        inspected = ((d.reshape(k, n) >= 0) @ degree).tolist()
        for r in range(k):
            metrics.inc("frontier.levels", depths[r])
            metrics.inc("frontier.frontier_vertices", visited[r])
            metrics.inc("frontier.edges_inspected", inspected[r])
            metrics.inc("frontier.discovered", visited[r] - 1)
            metrics.inc("frontier.sweeps")
            metrics.observe("frontier.max_depth", depths[r] - 1)
    return grp


def forward_sweep(g: CSRGraph, source: int, metrics=None) -> ForwardResult:
    """Run the shortest-path calculation stage from ``source``: the
    one-root case of :func:`sweep_group`.

    Parameters
    ----------
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`; records
        the sweep's ``frontier.*`` totals.  Defaults to the process-wide
        no-op registry.
    """
    grp = sweep_group(g, [int(source)], metrics=metrics)
    return ForwardResult(source=int(grp.sources[0]), distances=grp.distances,
                         sigma=grp.sigma, levels=grp.levels,
                         level_scales=grp.level_scales[0], dag=grp.dag)
