"""Public betweenness-centrality entry point.

:func:`betweenness_centrality` computes exact (or source-subset) BC
values with the vectorised level-synchronous engine — no cost model,
no simulated device — and is the API example applications build on.
For simulated-GPU performance experiments use
:meth:`repro.gpusim.Device.run_bc`, which returns the same values plus
timing/traces.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .accumulation import dependency_accumulation, root_dependencies
from .brandes import normalize_bc
from .frontier import forward_sweep
from .preprocess import FoldResult, fold_degree_one, per_root_correction

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
        take the classic unfolded path automatically.

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
    n = g.num_vertices
    bc = np.zeros(n, dtype=np.float64)
    if sources is None:
        roots = np.arange(n, dtype=np.int64)
    else:
        roots = np.asarray(sources, dtype=np.int64).ravel()
        if roots.size == 0:
            return bc
        if roots.min() < 0 or roots.max() >= n:
            raise IndexError(f"roots out of range [0, {n})")

    fold_result: FoldResult | None = None
    if isinstance(fold, FoldResult):
        fold_result = fold
    elif fold:
        fold_result = fold_degree_one(g)
    # Roots are swept in lockstep groups (root_dependencies); their
    # dependencies are still summed one root at a time, in root order.
    if fold_result is not None and not fold_result.is_identity:
        core, tw = fold_result.core, fold_result.core_weights
        if sources is None:
            # Full BC: one weighted traversal per *core* root, each
            # counted with its absorbed subtree weight, plus the fold's
            # closed-form credits.
            acc = np.zeros(core.num_vertices, dtype=np.float64)
            core_roots = np.arange(core.num_vertices, dtype=np.int64)
            for cs, delta in zip(core_roots.tolist(),
                                 root_dependencies(core, core_roots, tw)):
                acc += tw[cs] * delta
            bc = fold_result.expand(acc) + fold_result.credit
        else:
            # Subset roots: one weighted traversal from each root's
            # residual host plus its per-root correction — exact for
            # the unscaled partial sum, still traversing only the core.
            core_roots = fold_result.core_index[fold_result.host[roots]]
            for a, delta in zip(roots.tolist(),
                                root_dependencies(core, core_roots, tw)):
                bc += fold_result.expand(delta)
                bc += per_root_correction(fold_result, a)[1]
    else:
        for delta in root_dependencies(g, roots):
            bc += delta
    if g.undirected:
        bc /= 2.0
    if normalized:
        bc = normalize_bc(bc, n, undirected=g.undirected, copy=False)
    return bc
