"""Vectorised forward sweep: level-synchronous BFS with path counting.

This is Stage 1 of the paper (Algorithm 2) expressed as NumPy array
operations.  One call to :func:`forward_sweep` performs what the CUDA
kernel does across its while-loop: per level, gather the concatenated
adjacency lists of the frontier, discover unvisited vertices (the
atomicCAS of line 5 collapses to a mask + sorted unique), and accumulate
shortest-path counts into successors (the atomicAdd of line 9 collapses
to ``np.add.at``).

All strategy variants produce *identical* values — they differ in how
threads are assigned to this work, which is what the cost model (in
:mod:`repro.gpusim.cost`) charges for.  Literal re-implementations of
the edge-parallel and vertex-parallel traversal orders live in their
strategy modules and are tested for value-equality against this engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import concat_ranges, sorted_unique
from ..graph.csr import CSRGraph
from ..observability.registry import NULL_REGISTRY

__all__ = ["ForwardResult", "forward_sweep", "SIGMA_RESCALE_LIMIT"]

UNREACHED = -1

#: Per-level sigma magnitudes beyond this trigger rescaling.  Path
#: counts grow combinatorially with BFS depth (a 500-level mesh easily
#: exceeds float64 range), but Brandes's dependency formula only ever
#: uses ratios of sigmas on *adjacent* levels, so each level can be
#: renormalised independently as long as the scale factor is recorded.
SIGMA_RESCALE_LIMIT = 1e100


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
    """

    source: int
    distances: np.ndarray
    sigma: np.ndarray
    levels: list
    level_scales: np.ndarray = None

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


def forward_sweep(g: CSRGraph, source: int,
                  on_level=None, metrics=None) -> ForwardResult:
    """Run the shortest-path calculation stage from ``source``.

    Parameters
    ----------
    on_level:
        Optional callback ``on_level(depth, frontier, q_next_len)``
        invoked after each level is processed, *before* the next one
        begins — this is the hook the hybrid policy (Algorithm 4) uses
        to reconsider its parallelisation strategy between iterations.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`; records
        per-level frontier counters (``frontier.*`` series).  Defaults
        to the process-wide no-op registry.
    """
    if metrics is None:
        metrics = NULL_REGISTRY
    n = g.num_vertices
    source = int(source)
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    indptr, adj = g.indptr, g.adj
    d = np.full(n, UNREACHED, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    d[source] = 0
    sigma[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    levels = [frontier]
    scales = [1.0]
    depth = 0
    while True:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        nbr_idx = concat_ranges(starts, counts)
        nbrs = adj[nbr_idx]
        srcs = np.repeat(frontier, counts)
        # Discovery: first touch sets the depth (atomicCAS, line 5).
        fresh = nbrs[d[nbrs] == UNREACHED]
        q_next = sorted_unique(fresh)
        if q_next.size:
            d[q_next] = depth + 1
        # Path counting: every tree/cross edge into depth+1 contributes
        # (atomicAdd, line 9).  Runs after discovery so the mask sees
        # the final depths, exactly like the level-synchronous kernel.
        if nbrs.size:
            useful = d[nbrs] == depth + 1
            if np.any(useful):
                np.add.at(sigma, nbrs[useful], sigma[srcs[useful]])
        if q_next.size:
            # Level-synchronous => sigma of depth+1 is final here; keep
            # magnitudes inside float64 range (see SIGMA_RESCALE_LIMIT).
            mx = float(sigma[q_next].max())
            if mx > SIGMA_RESCALE_LIMIT:
                sigma[q_next] /= mx
                scales.append(mx)
            else:
                scales.append(1.0)
        metrics.inc("frontier.levels")
        metrics.inc("frontier.frontier_vertices", frontier.size)
        metrics.inc("frontier.edges_inspected", nbrs.size)
        metrics.inc("frontier.discovered", q_next.size)
        if on_level is not None:
            on_level(depth, frontier, int(q_next.size))
        if q_next.size == 0:
            break
        frontier = q_next
        depth += 1
        levels.append(frontier)
    metrics.inc("frontier.sweeps")
    metrics.observe("frontier.max_depth", depth)
    return ForwardResult(source=source, distances=d, sigma=sigma, levels=levels,
                         level_scales=np.asarray(scales, dtype=np.float64))
