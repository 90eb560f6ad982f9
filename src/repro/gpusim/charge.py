"""Strategy charging: one traversal profile plus one policy -> a trace.

Every strategy computes identical values; they differ only in how
threads are assigned to frontier work.  So a traversal is executed
once, described by a value-free :class:`FrontierProfile` (per forward
depth: frontier size, edge frontier and, for per-root traversals, the
frontier's vertex ids and degrees), and :func:`charge` replays the
policy over those sizes, then charges each strategy's levels in one
array call of its :class:`CostModel` kernel.  This is the only caller
of the :class:`CostModel` kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import concat_ranges
from ..bc.policies import (
    BATCHED,
    EDGE_PARALLEL,
    GPU_FAN,
    VERTEX_PARALLEL,
    WORK_EFFICIENT,
    Policy,
)
from ..errors import StrategyError
from ..observability.registry import NULL_REGISTRY
from .cost import CostModel
from .trace import LevelTrace, RootTrace

__all__ = ["FrontierProfile", "charge"]


@dataclass(frozen=True)
class FrontierProfile:
    """Value-free shape of one traversal, one entry per forward depth.

    ``sizes``/``edges`` are the vertex and edge frontiers (for a batch:
    active (root, vertex) pairs and their summed degrees).  Per-root
    traversals also carry the frontier ``ids`` of every depth,
    concatenated depth by depth (the paper's ``S`` array), and their
    ``degrees``, which the work- and vertex-parallel kernels charge.
    """

    root: int
    sizes: list
    edges: list
    ids: np.ndarray | None = None
    degrees: np.ndarray | None = None
    num_vertices: int = 0
    num_directed_edges: int = 0

    @classmethod
    def of_sweep(cls, g, fwd) -> "FrontierProfile":
        """Profile of a per-root forward sweep (degrees gathered once)."""
        ids = fwd.s_array()
        degrees = g.indptr[ids + 1] - g.indptr[ids]
        sizes = [lv.size for lv in fwd.levels]
        starts = np.cumsum(sizes) - sizes
        return cls(root=int(fwd.source), sizes=sizes,
                   edges=np.add.reduceat(degrees, starts).tolist(),
                   ids=ids, degrees=degrees,
                   num_vertices=g.num_vertices,
                   num_directed_edges=g.num_directed_edges)

    @classmethod
    def of_group(cls, g, grp) -> list:
        """Profiles of every root of a lockstep
        :class:`~repro.bc.frontier.ForwardGroup`, in row order; each is
        what :meth:`of_sweep` gives for that root's own sweep."""
        n = g.num_vertices
        keys = np.concatenate(grp.levels)
        if grp.size == 1:
            ids = keys
        else:
            # Level-major keys -> row-major, depth order kept per row.
            ids = keys[np.argsort(keys // n, kind="stable")] % n
        degrees = g.indptr[ids + 1] - g.indptr[ids]
        sizes = grp.frontier_sizes[grp.frontier_sizes > 0]
        starts = np.cumsum(sizes) - sizes
        edges = np.add.reduceat(degrees, starts).tolist()
        sizes = sizes.tolist()
        profiles = []
        depth_end = np.cumsum(grp.depths).tolist()
        depth_lo = vert_lo = 0
        for r, depth_hi in enumerate(depth_end):
            vert_hi = vert_lo + sum(sizes[depth_lo:depth_hi])
            profiles.append(cls(root=int(grp.sources[r]),
                                sizes=sizes[depth_lo:depth_hi],
                                edges=edges[depth_lo:depth_hi],
                                ids=ids[vert_lo:vert_hi],
                                degrees=degrees[vert_lo:vert_hi],
                                num_vertices=n,
                                num_directed_edges=g.num_directed_edges))
            depth_lo, vert_lo = depth_hi, vert_hi
        return profiles


def _replay(policy: Policy, root: int, sizes: list, metrics) -> list:
    """The strategy of every forward depth, recording the policy's
    ``decision.initial``/``decision.step`` audit records."""
    decision = policy.initial_decision()
    metrics.record("decision.initial", root=root, applies_to_depth=0,
                   strategy=decision.strategy, policy=decision.policy,
                   rule=decision.rule, **decision.inputs)
    strategy = decision.strategy
    strategies = []
    for depth, size in enumerate(sizes):
        strategies.append(strategy)
        q_next = sizes[depth + 1] if depth + 1 < len(sizes) else 0
        decision = policy.decide(strategy, size, q_next)
        if q_next > 0:
            # The decision taken after level `depth` governs level
            # `depth + 1`; the final (never-applied) evaluation after the
            # last level is not recorded.
            metrics.record("decision.step", root=root, depth=depth,
                           applies_to_depth=depth + 1, previous=strategy,
                           strategy=decision.strategy,
                           policy=decision.policy, rule=decision.rule,
                           **decision.inputs)
        strategy = decision.strategy
    return strategies


def _kernel_cycles(strategy: str, profile: FrontierProfile, depths: list,
                   costs: CostModel, chunk: int,
                   device_chunk: int | None) -> tuple:
    """Forward and backward cycles of ``depths`` under ``strategy``."""
    m = profile.num_directed_edges
    if strategy in (WORK_EFFICIENT, VERTEX_PARALLEL):
        sizes = np.asarray(profile.sizes, dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        rows = concat_ranges(starts[depths], sizes[depths])
        if strategy == WORK_EFFICIENT:
            return costs.we_levels(profile.degrees[rows], sizes[depths], chunk)
        return costs.vp_levels(profile.num_vertices, profile.ids[rows],
                               profile.degrees[rows], sizes[depths], chunk)
    edges = np.asarray(profile.edges, dtype=np.int64)[depths]
    if strategy == EDGE_PARALLEL:
        return costs.ep_levels(m, edges, chunk)
    if strategy not in (GPU_FAN, BATCHED):
        raise StrategyError(f"unknown strategy {strategy!r}")
    if device_chunk is None:
        raise StrategyError(f"{strategy} strategy requires device_chunk")
    if strategy == GPU_FAN:
        return costs.gpu_fan_levels(m, edges, device_chunk)
    return costs.batched_levels(edges, device_chunk)


def _instrument(metrics, levels: list) -> None:
    """The per-level ``engine.*`` series, in level order, through
    instruments resolved once per root."""
    resolved = {}
    frontier_size = metrics.histogram("engine.frontier_size", stage="forward")
    for lv in levels:
        series = resolved.get((lv.stage, lv.strategy))
        if series is None:
            series = resolved[lv.stage, lv.strategy] = (
                metrics.counter("engine.levels", stage=lv.stage,
                                strategy=lv.strategy),
                metrics.counter("engine.frontier_vertices", stage=lv.stage),
                metrics.counter("engine.frontier_edges", stage=lv.stage),
                metrics.counter("engine.cycles", stage=lv.stage,
                                strategy=lv.strategy))
        count, vertices, edges, cycles = series
        count.inc()
        vertices.inc(lv.frontier_size)
        edges.inc(lv.edge_frontier)
        cycles.inc(lv.cycles)
        if lv.stage == "forward":
            frontier_size.observe(lv.frontier_size)


def charge(profile: FrontierProfile, policy: Policy, costs: CostModel,
           chunk: int, device_chunk: int | None = None,
           metrics=None) -> RootTrace:
    """Charge one traversal under ``policy``.

    Replays ``policy.decide`` once per forward level over the profile's
    frontier sizes (emitting the ``decision.initial``/``decision.step``
    audit records), charges every forward level and its mirrored
    backward level (depths ``max_depth - 1`` down to 1, deepest first)
    under the decided strategy, and emits the per-level ``engine.*``
    series.  ``device_chunk`` is the whole-device concurrency the
    ``gpu-fan`` and ``batched`` kernels cooperate across.
    """
    if metrics is None:
        metrics = NULL_REGISTRY
    sizes = [int(size) for size in profile.sizes]
    edges = [int(ef) for ef in profile.edges]
    strategies = _replay(policy, profile.root, sizes, metrics)
    by_strategy: dict = {}
    for depth, strategy in enumerate(strategies):
        by_strategy.setdefault(strategy, []).append(depth)
    forward = np.empty(len(strategies))
    backward = np.empty(len(strategies))
    for strategy, depths in by_strategy.items():
        forward[depths], backward[depths] = _kernel_cycles(
            strategy, profile, depths, costs, chunk, device_chunk)
    forward, backward = forward.tolist(), backward.tolist()
    levels = [LevelTrace(depth, "forward", strategies[depth], sizes[depth],
                         edges[depth], forward[depth])
              for depth in range(len(sizes))]
    levels += [LevelTrace(depth, "backward", strategies[depth], sizes[depth],
                          edges[depth], backward[depth])
               for depth in range(len(sizes) - 2, 0, -1)]
    if metrics.enabled and levels:
        _instrument(metrics, levels)
    return RootTrace(root=profile.root, levels=levels)
