"""Vectorised dependency accumulation (Stage 2, Algorithm 3).

Each vertex ``w`` at depth ``depth`` sums contributions from its
successors, the neighbours at ``depth + 1``:

    delta[w] = sum_{v in succ(w)} sigma[w]/sigma[v] * (1 + delta[v])

Algorithm 3 finds ``succ(w)`` by re-scanning ``w``'s adjacency list
(there is no predecessor array — the space/recompute trade-off of Green
& Bader adopted by the paper).  This executor reads the successor edges
the forward sweep already found instead (:attr:`ForwardResult.dag`): in
NumPy a second gather costs more than keeping one root's DAG edges.
The cost model still charges the successor scan.

Levels are processed deepest-first; vertices on the deepest level have
no successors, so the sweep starts one level up (Algorithm 2, line 12),
and depth 0 (the root) is skipped since a root never contributes to its
own score.

:func:`accumulate_group` runs the backward stage of a lockstep group
(:func:`~repro.bc.frontier.sweep_group`) one group depth at a time over
the ``row * n + vertex`` keys; a row whose traversal is shallower has
no DAG edges at its deepest level, so each root still accumulates
exactly its depths ``max_depth - 1`` down to 1.
:func:`dependency_accumulation` is the one-root case, and
:func:`root_dependencies` yields per-root dependency vectors of any
root list through it.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .frontier import ForwardGroup, ForwardResult, group_width, sweep_group

__all__ = [
    "accumulate_group",
    "accumulate_level",
    "dependency_accumulation",
    "root_dependencies",
]


def accumulate_level(
    level: np.ndarray,
    owner: np.ndarray,
    succ: np.ndarray,
    sigma: np.ndarray,
    delta: np.ndarray,
    sigma_ratio_scale: float = 1.0,
    target_weights: np.ndarray | None = None,
) -> None:
    """Compute ``delta`` for all vertices of one level, in place.

    ``owner``/``succ`` are the level's DAG edges (see
    :attr:`~repro.bc.frontier.ForwardResult.dag`): ``succ[i]`` is a
    successor of ``level[owner[i]]``.  A level without successors is
    left untouched.

    ``sigma_ratio_scale`` corrects for per-level sigma rescaling: when
    the successors' stored sigmas were divided by ``f`` during the
    forward sweep, the true ratio ``sigma_w / sigma_v`` equals the
    stored ratio divided by ``f`` (pass ``1 / f``).

    ``target_weights`` generalises the ``1 +`` endpoint term: vertex
    ``v`` counts as ``target_weights[v]`` targets instead of one.  The
    degree-1 folding transform (:mod:`repro.bc.preprocess`) uses this
    to make one core vertex stand for its whole absorbed subtree;
    ``None`` keeps the classic unit-weight accumulation.
    """
    if succ.size == 0:
        return
    endpoint = 1.0 if target_weights is None else target_weights[succ]
    contrib = (endpoint + delta[succ]) / sigma[succ]
    acc = np.bincount(owner, contrib, minlength=level.size)
    delta[level] = sigma[level] * acc * sigma_ratio_scale


def accumulate_group(grp: ForwardGroup,
                     target_weights: np.ndarray | None = None) -> np.ndarray:
    """Run Stage 2 for every root of a lockstep group; returns the
    ``(k, n)`` dependencies, row ``r`` for ``grp.sources[r]``.

    ``target_weights`` are optional per-vertex target multiplicities
    (see :func:`accumulate_level`); ``None`` means unit weights.
    """
    delta = np.zeros(grp.sigma.size, dtype=np.float64)
    target_weights = grp.by_key(target_weights)
    ratio = grp.ratio_scales()
    # Start one level above the deepest (its vertices have no successors).
    for depth in range(len(grp.levels) - 2, 0, -1):
        owner, succ = grp.dag[depth]
        accumulate_level(grp.levels[depth], owner, succ, grp.sigma, delta,
                         sigma_ratio_scale=ratio[depth],
                         target_weights=target_weights)
    return delta.reshape(grp.size, grp.num_vertices)


def dependency_accumulation(
    g: CSRGraph,
    fwd: ForwardResult,
    target_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Run Stage 2 for one root; returns the ``delta`` array.

    The caller accumulates ``bc += delta`` (``delta[source]`` is always
    zero because depth 0 is never processed).  ``target_weights`` are
    optional per-vertex target multiplicities (see
    :func:`accumulate_level`); ``None`` means unit weights.  This is the
    one-root case of :func:`accumulate_group`.
    """
    grp = ForwardGroup(sources=np.array([fwd.source]),
                       num_vertices=g.num_vertices, distances=fwd.distances,
                       sigma=fwd.sigma, levels=fwd.levels, dag=fwd.dag,
                       level_scales=fwd.level_scales[None, :])
    return accumulate_group(grp, target_weights)[0]


def root_dependencies(g: CSRGraph, sources,
                      target_weights: np.ndarray | None = None,
                      metrics=None):
    """Yield each root's dependency vector, in the order of ``sources``.

    Roots are swept and accumulated in lockstep groups of
    :func:`~repro.bc.frontier.group_width` roots; each yielded vector
    is a row of its group's result, byte-identical to
    :func:`dependency_accumulation` of a one-root sweep.
    ``metrics`` records the sweeps' ``frontier.*`` totals.
    """
    sources = np.asarray(sources, dtype=np.int64).ravel()
    width = group_width(g)
    for lo in range(0, sources.size, width):
        grp = sweep_group(g, sources[lo:lo + width], metrics=metrics)
        yield from accumulate_group(grp, target_weights)
