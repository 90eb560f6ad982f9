"""Batched multi-root BC via sparse matrix products.

The paper takes its TEPS definition from Sarıyüce et al.,
"Regularizing Graph Centrality Computations" (reference [33]), whose
core idea is to batch many BFS roots into dense-matrix operations so
the traversal becomes regular, BLAS-shaped work.  This module is that
substrate: ``k`` roots are advanced simultaneously, one level per
step, with the frontier expansion expressed as a dense (k, n) x sparse
(n, n) product.

Trade-off (the same one the paper's strategies navigate): every step
touches all m edges for all k roots, so batching behaves like the
edge-parallel method — superb on small-diameter graphs (few steps,
regular memory traffic, NumPy/BLAS speed) and wasteful on high-diameter
ones, where the queue-based engine of :mod:`repro.bc.api` wins.  The
simulated device exposes this trade-off as the first-class ``batched``
strategy (:meth:`repro.gpusim.Device.run_bc`), gated by the same
depth-classification rule as Algorithm 5.

Values are exact and equal to every other implementation; sigma
overflow (possible on deep traversals, which are not this path's
target) is detected and transparently retried with the per-root
engine.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..gpusim.charge import FrontierProfile, charge
from ..observability.registry import NULL_REGISTRY
from .brandes import normalize_bc
from .preprocess import FoldResult, root_plan

__all__ = ["batched_betweenness_centrality", "batched_dependencies",
           "run_batch"]


def _adjacency(g: CSRGraph):
    import scipy.sparse as sp

    n = g.num_vertices
    data = np.ones(g.adj.size, dtype=np.float64)
    return sp.csr_matrix((data, g.adj, g.indptr), shape=(n, n))


def batched_dependencies(g: CSRGraph, roots: np.ndarray,
                         A=None,
                         target_weights: np.ndarray | None = None,
                         on_level=None) -> np.ndarray:
    """Dependency vectors for a batch of roots: ``(k, n)`` array whose
    row r is ``delta_{roots[r]}``.

    Parameters
    ----------
    target_weights:
        Optional per-vertex target multiplicities (degree-1 folded
        cores, :mod:`repro.bc.preprocess`): the accumulation endpoint
        term becomes ``target_weights[v] + delta`` instead of
        ``1 + delta``, exactly as in
        :func:`repro.bc.accumulation.accumulate_level`.
    on_level:
        Optional callback ``on_level(depth, frontier_pairs,
        edge_pairs)`` fired once per forward step with the number of
        active (root, vertex) pairs and their summed degrees — the
        frontier profile :func:`run_batch` charges.

    Raises ``FloatingPointError`` if path counts overflow float64 (use
    the per-root engine for very deep graphs; the public wrapper does
    that fallback automatically).
    """
    n = g.num_vertices
    roots = np.asarray(roots, dtype=np.int64).ravel()
    k = roots.size
    if k == 0:
        return np.zeros((0, n), dtype=np.float64)
    if roots.min() < 0 or roots.max() >= n:
        raise IndexError(f"roots out of range [0, {n})")
    if A is None:
        A = _adjacency(g)

    d = np.full((k, n), -1, dtype=np.int64)
    sigma = np.zeros((k, n), dtype=np.float64)
    rows = np.arange(k)
    d[rows, roots] = 0
    sigma[rows, roots] = 1.0
    deg = g.degrees

    # ---- forward: all roots advance one level per step --------------
    depth = 0
    with np.errstate(over="raise"):
        while True:
            active = np.where(d == depth, sigma, 0.0)
            if not active.any():
                break
            if on_level is not None:
                mask = d == depth
                per_vertex = mask.sum(axis=0)
                on_level(depth, int(per_vertex.sum()),
                         int(per_vertex @ deg))
            # T[r, w] = sum over in-neighbours v of w with d[r, v] == depth
            # of sigma[r, v] — the batched path-count relaxation.
            T = active @ A
            fresh = (d < 0) & (T > 0)
            if fresh.any():
                d[fresh] = depth + 1
            on_next = d == depth + 1
            sigma = np.where(on_next, T, sigma)
            depth += 1
            if not fresh.any():
                break

    max_depth = depth
    if not np.isfinite(sigma).all():
        # Deep traversals can push path counts past float64 range; the
        # per-root engine's per-level rescaling handles those.
        raise FloatingPointError("sigma overflow in batched sweep")

    # ---- backward: batched successor accumulation --------------------
    endpoint = 1.0 if target_weights is None \
        else np.asarray(target_weights, dtype=np.float64)
    delta = np.zeros((k, n), dtype=np.float64)
    AT = A.T.tocsr()
    for depth in range(max_depth - 1, 0, -1):
        succ_mask = d == depth + 1
        with np.errstate(divide="ignore", invalid="ignore"):
            X = np.where(succ_mask, (endpoint + delta) / sigma, 0.0)
        X[~np.isfinite(X)] = 0.0
        # Y[r, w] = sum over out-neighbours v of w of X[r, v].
        Y = X @ AT
        on_level_mask = d == depth
        delta = np.where(on_level_mask, sigma * Y, delta)
    if not np.isfinite(delta).all():
        raise FloatingPointError("sigma overflow in batched sweep")
    return delta


def run_batch(g: CSRGraph, batch: np.ndarray, bc: np.ndarray, policy,
              costs, chunk: int, device_chunk: int, A=None, metrics=None,
              source_weights: np.ndarray | None = None,
              target_weights: np.ndarray | None = None):
    """:func:`repro.bc.engine.run_root` for a whole batch: its values,
    folded into ``bc`` (row-weighted by ``source_weights``), plus one
    charge of its (pair, edge-pair) profile under ``policy``; the trace
    is keyed by the first root.  Path-count overflow raises
    ``FloatingPointError`` before anything is charged or accumulated."""
    if metrics is None:
        metrics = NULL_REGISTRY
    sizes: list = []
    edges: list = []

    def on_level(depth, pairs, epairs):
        sizes.append(pairs)
        edges.append(epairs)

    delta = batched_dependencies(g, batch, A=A, target_weights=target_weights,
                                 on_level=on_level)
    trace = charge(FrontierProfile(root=int(batch[0]), sizes=sizes,
                                   edges=edges),
                   policy, costs, chunk, device_chunk=device_chunk,
                   metrics=metrics)
    metrics.inc("engine.roots", batch.size)
    if source_weights is not None:
        delta *= np.asarray(source_weights)[batch][:, None]
    bc += delta.sum(axis=0)
    return trace


def _engine_retry(g: CSRGraph, batch: np.ndarray, metrics,
                  target_weights: np.ndarray | None = None,
                  row_weights: np.ndarray | None = None) -> np.ndarray:
    """Per-root-engine fallback for one overflowed batch; the caller's
    metrics registry sees both the retry counter and the traversals."""
    from .accumulation import root_dependencies

    metrics.inc("batched.overflow_retries")
    contrib = np.zeros(g.num_vertices, dtype=np.float64)
    for delta in root_dependencies(g, batch, target_weights, metrics=metrics,
                                   source_weights=row_weights):
        contrib += delta
    return contrib


def batched_betweenness_centrality(
    g: CSRGraph,
    sources=None,
    batch_size: int = 64,
    normalized: bool = False,
    metrics=None,
    fold: bool | FoldResult = True,
) -> np.ndarray:
    """Exact BC computed in root batches of ``batch_size``.

    Returns exactly what :func:`repro.bc.betweenness_centrality`
    returns.  Prefer this on small-diameter graphs with many roots;
    prefer the queue-based engine on high-diameter graphs.

    ``metrics`` (an optional
    :class:`~repro.observability.MetricsRegistry`) is threaded through
    the sigma-overflow fallback too, counting ``batched.overflow_retries``
    per retried batch.  ``fold`` applies the degree-1 preprocess
    (default on; identity folds take the unfolded path): the batches
    run :func:`~repro.bc.preprocess.root_plan`'s traversals.
    """
    if metrics is None:
        metrics = NULL_REGISTRY
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    plan = root_plan(g, sources, fold)
    run_g, tw, sw = plan.graph, plan.target_weights, plan.source_weights
    A = _adjacency(run_g) if plan.run_roots.size else None
    acc = np.zeros(run_g.num_vertices, dtype=np.float64)
    for lo in range(0, plan.run_roots.size, batch_size):
        batch = plan.run_roots[lo:lo + batch_size]
        w_rows = None if sw is None else sw[batch]
        try:
            delta = batched_dependencies(run_g, batch, A=A, target_weights=tw)
            if w_rows is not None:
                delta *= w_rows[:, None]
            acc += delta.sum(axis=0)
        except FloatingPointError:
            # Deep traversal overflowed the batched float64 counts; the
            # per-root engine rescales sigma per level and is exact —
            # and keeps charging the same registry.
            acc += _engine_retry(run_g, batch, metrics, target_weights=tw,
                                 row_weights=w_rows)
    bc = plan.finish(acc)
    if g.undirected:
        bc /= 2.0
    if normalized:
        bc = normalize_bc(bc, g.num_vertices, undirected=g.undirected,
                          copy=False)
    return bc
