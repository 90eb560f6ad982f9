"""Batched multi-root BC: a batch of roots charged as one traversal.

The paper takes its TEPS definition from Sarıyüce et al.,
"Regularizing Graph Centrality Computations" (reference [33]), whose
core idea is to batch many BFS roots so the traversal becomes regular,
BLAS-shaped work.  The executor's one root loop,
:func:`~repro.bc.accumulation.root_dependencies`, already is that
batching: it sweeps and accumulates roots in lockstep groups.  So a
batch's values are its roots' rows of that loop, and the ``batched``
device strategy (:meth:`repro.gpusim.Device.run_strategies`) is one
more charge of the device's one sweep: one whole-device
:meth:`~repro.gpusim.charge.FrontierProfile.summed` profile per batch,
whose frontier and edge frontier at each depth are the sums of its
roots' rows at that depth.

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
from ..gpusim.charge import Charges, FrontierProfile
from .brandes import normalize_bc
from .preprocess import FoldResult, root_plan

__all__ = ["batched_betweenness_centrality", "batched_dependencies"]


class _Rows(Charges):
    """Root-loop charges that charge nothing: root ``i``'s dependencies
    become row ``i`` of the loop's ``bc``, and its frontier rows are
    kept."""

    def __init__(self):
        super().__init__(None, None, 0)
        self.rows: list = []

    def root(self, r: int) -> None:
        self.rows.append(self.profile.series(r))

    def add(self, bc: np.ndarray, delta: np.ndarray) -> None:
        bc[len(self.rows) - 1] = delta


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
        summed degrees — the batch's
        :meth:`~repro.gpusim.charge.FrontierProfile.summed` profile,
        which the ``batched`` device strategy charges.
    """
    from . import engine  # deferred: the engine imports gpusim

    roots = np.asarray(roots, dtype=np.int64).ravel()
    delta = np.empty((roots.size, g.num_vertices), dtype=np.float64)
    rows = _Rows()
    engine.run_roots(g, roots, delta, rows, target_weights=target_weights)
    if on_level is not None and rows.rows:
        batch = FrontierProfile.summed(int(roots[0]), rows.rows)
        for depth, pairs in enumerate(zip(batch.sizes, batch.edges)):
            on_level(depth, *pairs)
    return delta


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
