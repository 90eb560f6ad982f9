"""Strategy charging: traversal profiles plus one policy -> traces.

Every strategy computes identical values; they differ only in how
threads are assigned to frontier work.  So a traversal is executed
once, described by a value-free :class:`FrontierProfile` (per forward
depth: frontier size, edge frontier and, for per-root traversals, the
frontier's vertex ids and degrees), and charged in array form:

* :func:`charge_rows` takes the profiles of a lockstep group's roots,
  asks :meth:`Policy.decide_levels` for each root's strategies, and
  charges each strategy's levels across all roots in one array call of
  its :class:`CostModel` kernel (this is the only caller of those
  kernels).  It returns each root's levels as
  :class:`~repro.gpusim.trace.LevelColumns` and records nothing.
* :func:`record_root`, called at each root's own turn in the root
  loop, makes the root's :class:`~repro.gpusim.trace.RootTrace` (its
  :class:`~repro.gpusim.trace.LevelTrace` list is built on first read)
  and records its metrics: every per-level ``engine.*`` series updated
  once, and one deferred block of ``decision.initial``/``decision.step``
  audit records, which :meth:`Policy.decide` builds only if the
  registry's events are read
  (:meth:`~repro.observability.MetricsRegistry.defer`).
* :func:`charge` is the one-root composition of the two.

Traces, counters, histograms and events are those of a level-by-level
replay (``tests/gpusim/test_charge_equivalence.py`` keeps that loop as
the reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain

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
from .cost import CostModel
from .trace import LevelColumns, RootTrace

__all__ = ["FrontierProfile", "charge", "charge_rows", "record_root"]


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


def _kernel_cycles(strategy: str, profile: FrontierProfile, depths,
                   costs: CostModel, chunk: int,
                   device_chunk: int | None) -> tuple:
    """Forward and backward cycles of ``depths`` (an index array, or
    ``slice(None)`` for every depth) under ``strategy``."""
    m = profile.num_directed_edges
    sizes = np.asarray(profile.sizes, dtype=np.int64)
    if strategy in (WORK_EFFICIENT, VERTEX_PARALLEL):
        rows = (depths if isinstance(depths, slice) else
                concat_ranges((np.cumsum(sizes) - sizes)[depths],
                              sizes[depths]))
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


def charge_rows(profiles: list, policy: Policy, costs: CostModel, chunk: int,
                device_chunk: int | None = None) -> list:
    """Decide and cost every level of ``profiles`` (the rows of one
    lockstep group, or any traversals of one graph); returns one
    :class:`~repro.gpusim.trace.LevelColumns` per profile, in order.

    Each row's strategies come from one :meth:`Policy.decide_levels`
    call; then each strategy's levels, across all rows, are charged
    (forward and backward) in one array call of its
    :class:`CostModel` kernel.  Records nothing: :func:`record_root`
    does, at each root's own turn.  ``device_chunk`` is the
    whole-device concurrency the ``gpu-fan`` and ``batched`` kernels
    cooperate across.
    """
    counts = [len(p.sizes) for p in profiles]
    decided = [policy.decide_levels(p.sizes) for p in profiles]
    strategy = np.concatenate(decided) if decided else np.empty(0, dtype=str)
    forward = np.empty(strategy.size)
    backward = np.empty(strategy.size)
    kinds = list(dict.fromkeys(strategy.tolist()))
    if kinds:
        # The rows' levels, one after another, as one profile.
        first = profiles[0]
        per_vertex = first.ids is not None
        stacked = FrontierProfile(
            root=first.root,
            sizes=np.fromiter(chain.from_iterable(p.sizes for p in profiles),
                              dtype=np.int64, count=strategy.size),
            edges=np.fromiter(chain.from_iterable(p.edges for p in profiles),
                              dtype=np.int64, count=strategy.size),
            ids=(np.concatenate([p.ids for p in profiles]) if per_vertex
                 else None),
            degrees=(np.concatenate([p.degrees for p in profiles])
                     if per_vertex else None),
            num_vertices=first.num_vertices,
            num_directed_edges=first.num_directed_edges)
        for kind in kinds:
            depths = (slice(None) if len(kinds) == 1
                      else np.flatnonzero(strategy == kind))
            forward[depths], backward[depths] = _kernel_cycles(
                kind, stacked, depths, costs, chunk, device_chunk)
    strategy = strategy.tolist()
    forward, backward = forward.tolist(), backward.tolist()
    out = []
    lo = 0
    for p, count in zip(profiles, counts):
        hi = lo + count
        out.append(LevelColumns(p.root, strategy[lo:hi],
                                [int(size) for size in p.sizes],
                                [int(ef) for ef in p.edges],
                                forward[lo:hi], backward[lo:hi]))
        lo = hi
    return out


def _decision_records(policy: Policy, columns: LevelColumns) -> list:
    """A root's ``decision.initial``/``decision.step`` audit records:
    :meth:`Policy.decide` replayed over its levels."""
    root, sizes, strategies = columns.root, columns.size, columns.strategy
    decision = policy.initial_decision()
    events = [{"event": "decision.initial", "root": root,
               "applies_to_depth": 0, "strategy": decision.strategy,
               "policy": decision.policy, "rule": decision.rule,
               **decision.inputs}]
    # The decision taken after level `depth` governs level `depth + 1`;
    # the final (never-applied) evaluation after the last level, and
    # any toward an empty level, are not recorded.
    for depth in range(len(sizes) - 1):
        q_next = sizes[depth + 1]
        if q_next > 0:
            previous = strategies[depth]
            decision = policy.decide(previous, sizes[depth], q_next)
            events.append({"event": "decision.step", "root": root,
                           "depth": depth, "applies_to_depth": depth + 1,
                           "previous": previous,
                           "strategy": decision.strategy,
                           "policy": decision.policy, "rule": decision.rule,
                           **decision.inputs})
    return events


def _by_strategy(strategies: list, values: list) -> dict:
    """``{strategy: values of its levels, in order}``."""
    if len(set(strategies)) == 1:
        return {strategies[0]: values}
    out: dict = {}
    for strategy, value in zip(strategies, values):
        out.setdefault(strategy, []).append(value)
    return out


def record_root(columns: LevelColumns, policy: Policy,
                metrics=None) -> RootTrace:
    """One charged root's trace, recording its metrics: each per-level
    ``engine.*`` series updated once, and one deferred block of its
    ``decision.initial``/``decision.step`` records.

    Call it at the root's own turn in the root loop, so that a root
    whose verification fails stops every later root's records.  The
    series get exactly the additions a level-by-level loop makes: the
    cycle counters add each level's cycles in trace order (forward by
    depth, then backward deepest first); the counts, vertex and edge
    totals are integer-valued, so one exact addition of a root's total
    stands for its per-level ones.
    """
    trace = RootTrace.from_columns(columns)
    if metrics is None or not metrics.enabled:
        return trace
    metrics.defer(partial(_decision_records, policy, columns))
    size, edges, strategy = columns.size, columns.edges, columns.strategy
    depth = len(size)
    if depth == 0:
        return trace
    inner = slice(1, depth - 1)
    for stage, strategies, cycles, sizes, edge_frontier in (
            ("forward", strategy, columns.forward, size, edges),
            ("backward", strategy[inner][::-1], columns.backward_cycles(),
             size[inner], edges[inner])):
        if not cycles:
            continue
        metrics.counter("engine.frontier_vertices", stage=stage).inc(
            sum(sizes))
        metrics.counter("engine.frontier_edges", stage=stage).inc(
            sum(edge_frontier))
        for name, values in _by_strategy(strategies, cycles).items():
            metrics.counter("engine.levels", stage=stage,
                            strategy=name).inc(len(values))
            metrics.counter("engine.cycles", stage=stage,
                            strategy=name).inc_all(values)
    metrics.histogram("engine.frontier_size", stage="forward").observe_all(
        size)
    return trace


def charge(profile: FrontierProfile, policy: Policy, costs: CostModel,
           chunk: int, device_chunk: int | None = None,
           metrics=None) -> RootTrace:
    """Charge one traversal under ``policy``: :func:`charge_rows` of
    one row, recorded by :func:`record_root`.

    Every forward level is charged, and its mirrored backward level
    (depths ``max_depth - 1`` down to 1, deepest first), under the
    strategy :meth:`Policy.decide_levels` picks for its depth.
    """
    (columns,) = charge_rows([profile], policy, costs, chunk, device_chunk)
    return record_root(columns, policy, metrics)
