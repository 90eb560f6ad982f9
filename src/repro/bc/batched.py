"""Batched multi-root BC: a batch of roots charged as one traversal.

The paper takes its TEPS definition from Sarıyüce et al.,
"Regularizing Graph Centrality Computations" (reference [33]), whose
core idea is to batch many BFS roots so the traversal becomes regular,
BLAS-shaped work.  The executor's one root loop,
:func:`~repro.bc.accumulation.root_dependencies`, already is that
batching: it sweeps and accumulates roots in lockstep groups.  So a
batch's values are its roots' rows of that loop, and the ``batched``
device strategy (:meth:`repro.gpusim.Device.run_bc`) differs from the
others only in how it is charged: one whole-device
:class:`~repro.gpusim.charge.FrontierProfile` per batch, whose frontier
and edge frontier at each depth are the sums over the batch's rows of
their ``FrontierProfile.of_group`` block at that depth.

Every step of the simulated batch touches the summed frontier of all
its roots, so batching behaves like the edge-parallel method: cheap on
small-diameter graphs, wasteful on high-diameter ones.  The device
gates it with the same depth classification as Algorithm 5.

Values are exact and equal to every other implementation's; the loop
rescales path counts per level, so no batch overflows.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..gpusim.charge import FrontierProfile, charge, level_degrees
from ..observability.registry import NULL_REGISTRY
from .accumulation import root_dependencies
from .brandes import normalize_bc
from .preprocess import FoldResult, root_plan

__all__ = ["batched_betweenness_centrality", "batched_dependencies",
           "run_batch"]


class _DepthSums:
    """Root-loop observer summing every group's per-depth frontier
    pairs and their degrees, depth-aligned across groups."""

    def __init__(self, g: CSRGraph):
        self.g = g
        self.sizes = np.zeros(0, dtype=np.int64)
        self.edges = np.zeros(0, dtype=np.int64)

    @staticmethod
    def _add(total: np.ndarray, part: np.ndarray) -> np.ndarray:
        if part.size > total.size:
            total, part = part, total
        total[:part.size] += part
        return total

    def after_forward(self, grp, r: int) -> None:
        if r:
            return
        sizes = np.array([lv.size for lv in grp.levels], dtype=np.int64)
        _, degrees = level_degrees(self.g, grp)
        edges = np.add.reduceat(degrees, np.cumsum(sizes) - sizes)
        self.sizes = self._add(self.sizes, sizes)
        self.edges = self._add(self.edges, edges)

    def after_accumulation(self, grp, r: int, delta) -> None:
        pass


def batched_dependencies(g: CSRGraph, roots: np.ndarray,
                         target_weights: np.ndarray | None = None,
                         on_level=None) -> np.ndarray:
    """Dependency vectors for a batch of roots: the ``(k, n)`` stack of
    :func:`~repro.bc.accumulation.root_dependencies`' rows, row ``r``
    being ``delta_{roots[r]}``.

    Parameters
    ----------
    target_weights:
        Optional per-vertex target multiplicities (degree-1 folded
        cores, :mod:`repro.bc.preprocess`), as in
        :func:`repro.bc.accumulation.accumulate_level`.
    on_level:
        Optional callback ``on_level(depth, frontier_pairs,
        edge_pairs)`` fired once per depth, after the batch has run,
        with the number of (root, vertex) pairs at that depth and their
        summed degrees — the frontier profile :func:`run_batch`
        charges.
    """
    roots = np.asarray(roots, dtype=np.int64).ravel()
    delta = np.empty((roots.size, g.num_vertices), dtype=np.float64)
    sums = None if on_level is None else _DepthSums(g)
    for r, row in enumerate(root_dependencies(g, roots, target_weights,
                                              observer=sums)):
        delta[r] = row
    if sums is not None:
        for depth, (pairs, epairs) in enumerate(zip(sums.sizes.tolist(),
                                                    sums.edges.tolist())):
            on_level(depth, pairs, epairs)
    return delta


def run_batch(g: CSRGraph, batch: np.ndarray, bc: np.ndarray, policy,
              costs, chunk: int, device_chunk: int, metrics=None,
              source_weights: np.ndarray | None = None,
              target_weights: np.ndarray | None = None):
    """:func:`repro.bc.engine.run_root` for a whole batch: its values,
    folded into ``bc`` (row-weighted by ``source_weights``), plus one
    charge of its summed (pair, edge-pair) profile under ``policy``;
    the trace is keyed by the first root."""
    if metrics is None:
        metrics = NULL_REGISTRY
    sizes: list = []
    edges: list = []

    def on_level(depth, pairs, epairs):
        sizes.append(pairs)
        edges.append(epairs)

    delta = batched_dependencies(g, batch, target_weights, on_level=on_level)
    trace = charge(FrontierProfile(root=int(batch[0]), sizes=sizes,
                                   edges=edges),
                   policy, costs, chunk, device_chunk=device_chunk,
                   metrics=metrics)
    metrics.inc("engine.roots", batch.size)
    if source_weights is not None:
        delta *= source_weights[batch][:, None]
    bc += delta.sum(axis=0)
    return trace


def batched_betweenness_centrality(
    g: CSRGraph,
    sources=None,
    batch_size: int = 64,
    normalized: bool = False,
    metrics=None,
    fold: bool | FoldResult = True,
) -> np.ndarray:
    """Exact BC computed in lockstep batches of ``batch_size`` roots.

    Returns exactly what :func:`repro.bc.betweenness_centrality`
    returns: :meth:`~repro.bc.preprocess.RootPlan.accumulate` of
    :func:`~repro.bc.preprocess.root_plan`'s traversals, grouped
    ``batch_size`` roots at a time.  ``metrics`` (an optional
    :class:`~repro.observability.MetricsRegistry`) records the sweeps'
    ``frontier.*`` totals.  ``fold`` applies the degree-1 preprocess
    (default on; identity folds take the unfolded path).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    plan = root_plan(g, sources, fold)
    bc = plan.finish(plan.accumulate(plan.run_roots, metrics=metrics,
                                     width=batch_size))
    if g.undirected:
        bc /= 2.0
    if normalized:
        bc = normalize_bc(bc, g.num_vertices, undirected=g.undirected,
                          copy=False)
    return bc
