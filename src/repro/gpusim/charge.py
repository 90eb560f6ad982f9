"""Strategy charging: one traversal profile plus one policy -> a trace.

Every strategy computes identical values; they differ only in how
threads are assigned to frontier work.  So a traversal is executed
once, described by a value-free :class:`FrontierProfile` (per forward
depth: frontier size, edge frontier and, for per-root traversals, the
frontier's vertex ids and degrees), and :func:`charge` replays the
policy over those sizes and charges every level under the strategy it
decided.  This is the only caller of the :class:`CostModel` kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    traversals also carry each depth's frontier ``ids`` and their
    ``degrees``, which the work- and vertex-parallel kernels charge.
    """

    root: int
    sizes: list
    edges: list
    ids: list | None = None
    degrees: list | None = None
    num_vertices: int = 0
    num_directed_edges: int = 0

    @classmethod
    def of_sweep(cls, g, fwd) -> "FrontierProfile":
        """Profile of a per-root forward sweep (degrees gathered once)."""
        deg = g.degrees
        degrees = [deg[lv] for lv in fwd.levels]
        return cls(root=int(fwd.source),
                   sizes=[int(lv.size) for lv in fwd.levels],
                   edges=[int(d.sum()) for d in degrees],
                   ids=fwd.levels, degrees=degrees,
                   num_vertices=g.num_vertices,
                   num_directed_edges=g.num_directed_edges)


def _add(trace: RootTrace, metrics, lv: LevelTrace) -> None:
    trace.add(lv)
    metrics.inc("engine.levels", stage=lv.stage, strategy=lv.strategy)
    metrics.inc("engine.frontier_vertices", lv.frontier_size, stage=lv.stage)
    metrics.inc("engine.frontier_edges", lv.edge_frontier, stage=lv.stage)
    metrics.inc("engine.cycles", lv.cycles, stage=lv.stage,
                strategy=lv.strategy)


def charge(profile: FrontierProfile, policy: Policy, costs: CostModel,
           chunk: int, device_chunk: int | None = None,
           metrics=None) -> RootTrace:
    """Charge one traversal under ``policy``.

    Replays ``policy.decide`` once per forward level over the profile's
    frontier sizes, charges each forward level and its mirrored
    backward level (depths ``max_depth - 1`` down to 1, deepest first)
    under the decided strategy, and emits the per-level ``engine.*``
    series plus the ``decision.initial``/``decision.step`` audit
    records.  ``device_chunk`` is the whole-device concurrency the
    ``gpu-fan`` and ``batched`` kernels cooperate across.
    """
    if metrics is None:
        metrics = NULL_REGISTRY
    root = profile.root
    trace = RootTrace(root=root)
    decision = policy.initial_decision()
    metrics.record("decision.initial", root=root, applies_to_depth=0,
                   strategy=decision.strategy, policy=decision.policy,
                   rule=decision.rule, **decision.inputs)
    strategy = decision.strategy
    kernels = {WORK_EFFICIENT: (costs.we_forward, costs.we_backward),
               EDGE_PARALLEL: (costs.ep_forward, costs.ep_backward),
               VERTEX_PARALLEL: (costs.vp_forward, costs.vp_backward),
               GPU_FAN: (costs.gpu_fan_forward, costs.gpu_fan_backward),
               BATCHED: (costs.batched_forward, costs.batched_backward)}
    n, m = profile.num_vertices, profile.num_directed_edges
    mask = None  # vertex-parallel's n-length degree mask, reused per level
    last = len(profile.sizes) - 1
    backward = []
    for depth, (size, ef) in enumerate(zip(profile.sizes, profile.edges)):
        # One level's kernel arguments, shared by both stages.
        if strategy not in kernels:
            raise StrategyError(f"unknown strategy {strategy!r}")
        if strategy == WORK_EFFICIENT:
            args = (profile.degrees[depth], chunk)
        elif strategy == EDGE_PARALLEL:
            args = (m, ef, chunk)
        elif strategy == VERTEX_PARALLEL:
            if mask is None:
                mask = np.zeros(n, dtype=np.int64)
            mask[profile.ids[depth]] = profile.degrees[depth]
            args = (n, mask, chunk)
        elif device_chunk is None:
            raise StrategyError(f"{strategy} strategy requires device_chunk")
        else:
            args = ((m, ef, device_chunk) if strategy == GPU_FAN
                    else (ef, device_chunk))
        fwd_kernel, bwd_kernel = kernels[strategy]
        _add(trace, metrics, LevelTrace(depth, "forward", strategy, size, ef,
                                        fwd_kernel(*args)))
        metrics.observe("engine.frontier_size", size, stage="forward")
        if 0 < depth < last:
            backward.append(LevelTrace(depth, "backward", strategy, size, ef,
                                       bwd_kernel(*args)))
        if strategy == VERTEX_PARALLEL:
            mask[profile.ids[depth]] = 0
        q_next = profile.sizes[depth + 1] if depth < last else 0
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
    for lv in reversed(backward):
        _add(trace, metrics, lv)
    return trace
