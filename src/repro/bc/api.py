"""Public betweenness-centrality entry point.

:func:`betweenness_centrality` computes exact (or source-subset) BC
values with the vectorised level-synchronous engine — no cost model,
no simulated device — and is the API example applications build on.
For simulated-GPU performance experiments use
:meth:`repro.gpusim.Device.run_bc`, which returns the same values plus
timing/traces.  Both take their traversals from one
:func:`~repro.bc.preprocess.root_plan` (the root set mapped onto the
degree-1-folded core and back), so a per-root strategy's ``bc`` has
the same bytes as this function's result.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .accumulation import dependency_accumulation, root_dependencies
from .brandes import normalize_bc
from .frontier import forward_sweep
from .preprocess import FoldResult, root_plan

__all__ = ["betweenness_centrality", "bc_single_source_dependencies"]


def bc_single_source_dependencies(g: CSRGraph, source: int) -> np.ndarray:
    """Dependency vector ``delta_s`` for one root (Eq. 2 summed over
    successors); ``BC = sum over roots of delta_s`` (Eq. 3)."""
    fwd = forward_sweep(g, int(source))
    return dependency_accumulation(g, fwd)


def betweenness_centrality(
    g: CSRGraph,
    sources=None,
    normalized: bool = False,
    fold: bool | FoldResult = True,
) -> np.ndarray:
    """Exact betweenness centrality of every vertex.

    Parameters
    ----------
    g:
        Input graph.  For undirected graphs each unordered pair is
        counted once (scores halved), matching NetworkX and Figure 1.
    sources:
        Iterable of roots to accumulate; defaults to all vertices (the
        exact O(mn) computation).  A subset yields the *unscaled*
        partial sum — see :func:`repro.bc.approx.approximate_bc` for
        the rescaled estimator.  An *empty* subset returns the zero
        vector: this is what a zero-root rank contributes in the
        distributed decomposition (:mod:`repro.cluster.distributed`,
        :mod:`repro.resilience`).  Out-of-range roots raise
        ``IndexError`` up front rather than failing mid-traversal.
    normalized:
        Divide by the maximum possible score (Section II-B).
    fold:
        Apply the degree-1 folding preprocess (on by default; exact to
        float round-off — see :mod:`repro.bc.preprocess`).  Pass
        ``False`` to traverse the original graph, or a precomputed
        :class:`~repro.bc.preprocess.FoldResult` for ``g`` to skip
        re-folding.  Identity folds (directed or pendant-free graphs)
        take the classic unfolded path automatically.  The traversals
        are :func:`~repro.bc.preprocess.root_plan`'s, summed in the
        same order as :meth:`repro.gpusim.Device.run_bc`'s per-root
        strategies, so the two return the same bytes.

    Returns
    -------
    ``float64`` array of length ``g.num_vertices``.

    Examples
    --------
    >>> from repro.graph.generators import figure1_graph
    >>> bc = betweenness_centrality(figure1_graph())
    >>> int(np.argmax(bc))  # paper vertex 4 (0-indexed: 3)
    3
    """
    plan = root_plan(g, sources, fold)
    sw = plan.source_weights
    # Roots are swept in lockstep groups (root_dependencies); their
    # dependencies are still summed one root at a time, in root order.
    acc = np.zeros(plan.graph.num_vertices, dtype=np.float64)
    for delta in root_dependencies(
            plan.graph, plan.run_roots, plan.target_weights,
            source_weights=None if sw is None else sw[plan.run_roots]):
        acc += delta
    bc = plan.finish(acc)
    if g.undirected:
        bc /= 2.0
    if normalized:
        bc = normalize_bc(bc, g.num_vertices, undirected=g.undirected,
                          copy=False)
    return bc
