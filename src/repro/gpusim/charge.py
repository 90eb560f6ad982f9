"""Strategy charging: traversal profiles plus one policy -> traces.

Every strategy computes identical values; they differ only in how
threads are assigned to frontier work.  So a traversal is executed
once, described by a value-free :class:`FrontierProfile` (per forward
depth: frontier size, edge frontier and, for per-root traversals, the
frontier's vertex ids and degrees), and charged in array form, one
lockstep group's rows as one block:

* :func:`charge_rows` decides every row's strategies in one segmented
  :meth:`Policy.decide_levels` pass, charges each strategy's levels
  across all rows in one call of its :class:`CostModel` kernel (its
  only caller) and returns the block's columns; it records nothing.
* :func:`record_root`, called at each root's own turn in the root
  loop, makes the root's :class:`~repro.gpusim.trace.RootTrace` from
  its row and records its metrics: each ``engine.*`` series (resolved
  once per run) updated once, and one deferred block of
  ``decision.initial``/``decision.step`` records, which
  :meth:`Policy.decide` builds only if the registry's events are read
  (:meth:`~repro.observability.MetricsRegistry.defer`).
* :func:`charge` is the one-row composition of the two, and
  :class:`Charges` the root loop's: a group's block under each policy
  its rows need, each row recorded at its root's turn.

Traces, counters, histograms and events are those of a level-by-level
replay (``tests/gpusim/test_charge_equivalence.py`` keeps that loop as
the reference).
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate, zip_longest

import numpy as np

from .._util import concat_ranges
from ..bc.frontier import ForwardGroup
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
from .trace import LevelColumns, RootTrace

__all__ = ["Charges", "EngineSeries", "FrontierProfile", "charge",
           "charge_rows", "level_degrees", "record_root"]


def level_degrees(g, grp) -> tuple:
    """A group's frontier vertex ids and degrees, level by level."""
    ids = np.concatenate(grp.levels)
    if grp.size > 1:  # a row's keys are its vertices plus row * n
        ids -= np.tile(np.arange(grp.size) * g.num_vertices,
                       len(grp.levels)).repeat(grp.frontier_sizes.T.ravel())
    return ids, g.degrees[ids]


class FrontierProfile:
    """Value-free shape of traversals of one graph, one entry per
    forward depth, rows stacked: row ``r``, the traversal of root
    ``roots[r]``, is depths ``offsets[r]:offsets[r + 1]``.  Built
    without ``offsets``, it is one traversal of ``root``: one row.

    ``sizes``/``edges`` (lists of ints) are the vertex and edge
    frontiers (for a batch: active (root, vertex) pairs and their summed
    degrees).  Per-root traversals also carry every depth's frontier
    ``ids`` (each row's ``S`` array) and their ``degrees``, which the
    work- and vertex-parallel kernels charge.
    """

    def __init__(self, root, sizes: list, edges: list, ids=None,
                 degrees=None, num_vertices: int = 0,
                 num_directed_edges: int = 0, offsets: list | None = None):
        self.roots = [root] if offsets is None else root
        self.offsets = [0, len(sizes)] if offsets is None else offsets
        self.sizes, self.edges = sizes, edges
        self.ids, self.degrees = ids, degrees
        self.num_vertices = num_vertices
        self.num_directed_edges = num_directed_edges

    @property
    def root(self) -> int:
        """The root of a one-row profile."""
        (root,) = self.roots
        return root

    @classmethod
    def of_sweep(cls, g, fwd) -> "FrontierProfile":
        """Profile of a per-root sweep: its one-root group's block."""
        return cls.of_group(g, ForwardGroup(
            np.array([fwd.source]), g.num_vertices, fwd.distances,
            fwd.sigma, fwd.levels, fwd.dag, fwd.level_scales[None]))

    @classmethod
    def of_group(cls, g, grp) -> "FrontierProfile":
        """The block of a lockstep :class:`~repro.bc.frontier.ForwardGroup`:
        row ``r`` is the profile of root ``r``'s own sweep."""
        counts = grp.frontier_sizes
        cells = counts > 0  # a row's depths are a prefix
        sizes = counts[cells]
        ids, degrees = level_degrees(g, grp)
        if grp.size > 1:
            # Level-major keys -> row-major: cell (r, d)'s keys start
            # after all cells of earlier depths and of earlier rows at d.
            flat = counts.ravel(order="F")  # cells in level-major order
            start = (np.cumsum(flat) - flat).reshape(counts.shape, order="F")
            rows = concat_ranges(start[cells], sizes)
            ids, degrees = ids[rows], degrees[rows]
        edges = np.add.reduceat(degrees, np.cumsum(sizes) - sizes)
        return cls(grp.sources.tolist(), sizes.tolist(), edges.tolist(),
                   ids, degrees, g.num_vertices, g.num_directed_edges,
                   offsets=list(accumulate(grp.depths, initial=0)))

    @classmethod
    def summed(cls, root, rows) -> "FrontierProfile":
        """One traversal of ``root`` whose vertex and edge frontiers at
        each depth are the sums of ``rows``' (:meth:`series` pairs,
        depth-aligned): a batch of roots charged as one traversal."""
        sizes, edges = zip(*rows)
        return cls(root, *([sum(d) for d in zip_longest(*series, fillvalue=0)]
                           for series in (sizes, edges)))

    def series(self, r: int) -> tuple:
        """Row ``r``'s vertex and edge frontiers, depth by depth."""
        lo, hi = self.offsets[r], self.offsets[r + 1]
        return self.sizes[lo:hi], self.edges[lo:hi]

    def __getitem__(self, r: int) -> "FrontierProfile":
        """Row ``r``, as a one-row profile."""
        lo, hi = self.offsets[r], self.offsets[r + 1]
        v = slice(sum(self.sizes[:lo]), sum(self.sizes[:hi]))
        return FrontierProfile(
            self.roots[r], self.sizes[lo:hi], self.edges[lo:hi], self.ids[v],
            self.degrees[v], self.num_vertices, self.num_directed_edges)


def _kernel_cycles(strategy: str, profile: FrontierProfile, sizes, edges,
                   depths, costs: CostModel, chunk: int,
                   device_chunk: int | None) -> tuple:
    """Forward and backward cycles of ``depths`` (an index array, or
    ``slice(None)`` for every depth) under ``strategy``."""
    m = profile.num_directed_edges
    if strategy in (WORK_EFFICIENT, VERTEX_PARALLEL):
        rows = (depths if isinstance(depths, slice) else
                concat_ranges((np.cumsum(sizes) - sizes)[depths],
                              sizes[depths]))
        if strategy == WORK_EFFICIENT:
            return costs.we_levels(profile.degrees[rows], sizes[depths], chunk)
        return costs.vp_levels(profile.num_vertices, profile.ids[rows],
                               profile.degrees[rows], sizes[depths], chunk)
    edges = edges[depths]
    if strategy == EDGE_PARALLEL:
        return costs.ep_levels(m, edges, chunk)
    if strategy not in (GPU_FAN, BATCHED):
        raise StrategyError(f"unknown strategy {strategy!r}")
    if device_chunk is None:
        raise StrategyError(f"{strategy} strategy requires device_chunk")
    if strategy == GPU_FAN:
        return costs.gpu_fan_levels(m, edges, device_chunk)
    return costs.batched_levels(edges, device_chunk)


def charge_rows(profile: FrontierProfile, policy: Policy, costs: CostModel,
                chunk: int, device_chunk: int | None = None) -> LevelColumns:
    """Decide and cost every level of ``profile`` (one lockstep
    group's rows, or any traversals of one graph); returns its
    :class:`~repro.gpusim.trace.LevelColumns` block, whose row ``r`` is
    what charging row ``r`` alone gives.  Records nothing.

    One segmented :meth:`Policy.decide_levels` call gives every row's
    strategies; then each strategy's levels, across all rows, are
    charged (forward and backward) in one call of its
    :class:`CostModel` kernel.  ``device_chunk`` is the whole-device
    concurrency of the ``gpu-fan`` and ``batched`` kernels.
    """
    sizes = np.array(profile.sizes, dtype=np.int64)
    edges = np.array(profile.edges, dtype=np.int64)
    decided = policy.decide_levels(sizes, profile.offsets[1:-1])
    strategy = decided.tolist()
    forward, backward = np.empty((2, sizes.size))
    kinds = list(dict.fromkeys(strategy))
    for kind in kinds:
        depths = (slice(None) if len(kinds) == 1
                  else np.flatnonzero(decided == kind))
        forward[depths], backward[depths] = _kernel_cycles(
            kind, profile, sizes, edges, depths, costs, chunk, device_chunk)
    return LevelColumns(profile.roots, profile.offsets, strategy,
                        sizes.tolist(), edges.tolist(), forward.tolist(),
                        backward.tolist())


def _decision_records(policy: Policy, columns: LevelColumns) -> list:
    """A root's ``decision.initial``/``decision.step`` audit records:
    :meth:`Policy.decide` replayed over its levels."""
    (root,), sizes, strategies = columns.roots, columns.size, columns.strategy
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


class EngineSeries(dict):
    """A registry's ``engine.*`` series by ``(name, stage[, strategy])``,
    each looked up once, on first use (one per run, not per root)."""

    def __init__(self, metrics):
        super().__init__()
        self.metrics = metrics

    def __missing__(self, key):
        make = (self.metrics.histogram if key[0] == "engine.frontier_size"
                else self.metrics.counter)
        self[key] = make(key[0], **dict(zip(("stage", "strategy"), key[1:])))
        return self[key]


def record_root(columns: LevelColumns, policy: Policy,
                series: EngineSeries | None = None) -> RootTrace:
    """One charged root's trace, from its one-row block, recording its
    metrics on ``series``: each per-level ``engine.*`` series updated
    once, and one deferred block of its decision records.

    Call it at the root's own turn in the root loop, so that a root
    whose verification fails stops every later root's records.  The
    series get exactly the additions a level-by-level loop makes: the
    cycle counters add each level's cycles in trace order (forward by
    depth, then backward deepest first); the counts, vertex and edge
    totals are integer-valued, so one exact addition of a root's total
    stands for its per-level ones.
    """
    trace = RootTrace.from_columns(columns)
    if series is None or not series.metrics.enabled:
        return trace
    series.metrics.defer(partial(_decision_records, policy, columns))
    size, edges, strategy = columns.size, columns.edges, columns.strategy
    if not size:
        return trace
    inner = slice(1, len(size) - 1)
    for stage, strategies, cycles, sizes, edge_frontier in (
            ("forward", strategy, columns.forward, size, edges),
            ("backward", strategy[inner][::-1], columns.backward_cycles(),
             size[inner], edges[inner])):
        if not cycles:
            continue
        series["engine.frontier_vertices", stage].inc(sum(sizes))
        series["engine.frontier_edges", stage].inc(sum(edge_frontier))
        kinds = dict.fromkeys(strategies)
        for name in kinds:
            values = (cycles if len(kinds) == 1 else
                      [c for s, c in zip(strategies, cycles) if s == name])
            series["engine.levels", stage, name].inc(len(values))
            series["engine.cycles", stage, name].inc_all(values)
    series["engine.frontier_size", "forward"].observe_all(size)
    return trace


class Charges:
    """How the root loop (:func:`repro.bc.engine.run_roots`) charges
    its roots: :meth:`group` gets each lockstep group's profile,
    :meth:`root` row ``r``'s turn, before the run's observer, and
    :meth:`add` the root's weighted dependencies, in root order.  These
    charge every root under ``policy``, a group as one block per policy
    (:meth:`record`)."""

    def __init__(self, policy: Policy, costs: CostModel, chunk: int,
                 device_chunk: int | None = None, metrics=None):
        self.policy, self.device_chunk = policy, device_chunk
        self.costs, self.chunk = costs, chunk
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.series = EngineSeries(self.metrics)
        self.traces: list = []

    def group(self, profile: FrontierProfile) -> None:
        self.profile, self.blocks = profile, {}

    def record(self, r: int, policy: Policy) -> RootTrace:
        """Row ``r``'s trace under ``policy``, its metrics recorded."""
        if policy not in self.blocks:
            self.blocks[policy] = charge_rows(self.profile, policy,
                                              self.costs, self.chunk,
                                              self.device_chunk)
        return record_root(self.blocks[policy].row(r), policy, self.series)

    def root(self, r: int) -> None:
        self.traces.append(self.record(r, self.policy))

    def add(self, bc: np.ndarray, delta: np.ndarray) -> None:
        bc += delta
        self.metrics.inc("engine.roots")
        self.metrics.observe("engine.root_cycles", self.traces[-1].cycles)


def charge(profile: FrontierProfile, policy: Policy, costs: CostModel,
           chunk: int, device_chunk: int | None = None,
           metrics=None) -> RootTrace:
    """Charge one traversal under ``policy``: :func:`charge_rows` of
    its one row, recorded by :func:`record_root`.

    Every forward level is charged, and its mirrored backward level
    (depths ``max_depth - 1`` down to 1, deepest first), under the
    strategy :meth:`Policy.decide_levels` picks for its depth.
    """
    columns = charge_rows(profile, policy, costs, chunk, device_chunk)
    return record_root(columns, policy,
                       None if metrics is None else EngineSeries(metrics))
