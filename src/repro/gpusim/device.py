"""Simulated GPU device: scheduling, memory checking, BC runs.

The device reproduces the execution structure of the paper's CUDA
implementations:

* **Coarse + fine parallelism** (Jia et al. layout, used by the
  vertex-/edge-parallel baselines and all of the paper's methods): one
  thread block per SM, each block processing BC roots one at a time and
  pulling the next root when it finishes — modelled as greedy list
  scheduling of per-root cycle costs onto ``num_sms`` SMs; the run's
  simulated time is the makespan.
* **Fine-grained only** (GPU-FAN): the whole device cooperates on one
  root at a time, so the simulated time is the *sum* of per-root costs
  (with device-wide concurrency per level and costlier global sync).

Before running, the device "allocates" every data structure the chosen
strategy needs; GPU-FAN's O(n^2) predecessor matrix therefore raises
:class:`~repro.errors.DeviceOutOfMemoryError` at the same scales the
paper reports it failing (Figure 5).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..bc.frontier import group_width
from ..bc.policies import (
    ALPHA,
    BATCHED,
    BETA,
    EDGE_PARALLEL,
    GPU_FAN,
    MIN_FRONTIER,
    VERTEX_PARALLEL,
    WORK_EFFICIENT,
    BatchedPolicy,
    FixedPolicy,
    FrontierGuardPolicy,
    HybridPolicy,
)
from ..bc.preprocess import FoldResult, root_plan
from ..bc.preprocess import fold_degree_one  # noqa: F401  (see below)
from ..bc.preprocess import per_root_correction  # noqa: F401  (see below)
from ..bc.sampling import DEFAULT_GAMMA, DEFAULT_N_SAMPS, classification_record
from ..errors import SilentCorruptionError, StrategyError
from ..graph.csr import CSRGraph
from ..observability.registry import NULL_REGISTRY
from ..verify import RootObserver, VerificationPolicy
from .charge import Charges, FrontierProfile, charge
from .cost import DEFAULT_COSTS, CostModel
from .memory import DeviceMemoryModel, strategy_footprint
from .spec import GTX_TITAN, GPUSpec
from .trace import RunTrace

# The layer tracer of benchmarks/e2e/layers.py wraps ``fold_degree_one``
# and ``per_root_correction`` by name in this module, so both stay
# importable here although the device reaches them through root_plan.

__all__ = ["Device", "DeviceRun", "STRATEGIES"]

#: Strategy names accepted by :meth:`Device.run_bc`.
STRATEGIES = (
    WORK_EFFICIENT,
    EDGE_PARALLEL,
    VERTEX_PARALLEL,
    "hybrid",
    "sampling",
    BATCHED,
    GPU_FAN,
)

#: Strategies whose first ``n_samps`` roots classify the graph.
_CLASSIFIED = ("sampling", BATCHED)


@dataclass
class DeviceRun:
    """Result of one simulated BC run."""

    bc: np.ndarray
    trace: RunTrace
    cycles: float
    seconds: float
    strategy: str
    spec: GPUSpec
    num_vertices: int
    num_edges: int
    roots: np.ndarray
    memory_report: dict = field(default_factory=dict)
    #: Algorithm 5's choice; for ``batched``, whether the remaining
    #: roots were routed through batch traversals.
    sampling_chose_edge_parallel: bool | None = None
    #: Cycles that do NOT scale with the root count when extrapolating
    #: (the sampling method's fixed classification phase).
    fixed_cycles: float = 0.0
    #: How many of ``roots`` were consumed by that fixed phase.
    fixed_roots: int = 0
    #: Roots each steady-state trace entry covers: 1 everywhere except
    #: a ``batched`` run whose batch traversals actually ran, whose
    #: trace entries are whole batches.
    roots_per_trace: int = 1
    #: Degree-1 fold applied to this run (None when folding was off or
    #: the fold was the identity) — carries the digest the service
    #: layer keys results under.
    fold: FoldResult | None = None
    #: A sampling or batched run's classification record (sampled
    #: depths, median, cutoff), as ``classification_record`` gives it.
    classification: dict | None = None

    @property
    def num_roots(self) -> int:
        return int(self.roots.size)

    def teps(self) -> float:
        """Traversed edges per second for the roots actually run:
        ``m * k / t`` (Eq. 4 restricted to k sources)."""
        if self.seconds <= 0:
            return float("inf")
        return self.num_edges * self.num_roots / self.seconds

    def mteps(self) -> float:
        """:meth:`teps` in millions."""
        return self.teps() / 1e6

    def extrapolated_seconds(self, total_roots: int | None = None) -> float:
        """Estimated time for a run over ``total_roots`` sources
        (default: all n).

        Steady-state roots scale by their measured per-root mean over
        the device's SMs — valid because per-root cost is near-uniform
        within one component (paper Sections IV-C, V-D) — while the
        sampling method's classification phase is charged once as a
        fixed cost, exactly as in a real full-n run.
        """
        total = self.num_vertices if total_roots is None else int(total_roots)
        steady = [rt.cycles for rt in self.trace.roots[self.fixed_roots:]]
        if not steady:
            # Everything ran in the fixed phase; fall back to makespan
            # scaling over the whole sample.
            if self.num_roots == 0:
                return 0.0
            return self.seconds * total / self.num_roots
        mean = float(np.mean(steady))
        remaining = max(0, total - self.fixed_roots)
        # GPU-FAN dedicates the whole device to each root, so roots do
        # not overlap across SMs, and a routed batched trace entry is a
        # whole device-cooperative batch; every other layout — batched
        # runs classified deep included — processes num_sms roots
        # concurrently.
        if self.strategy == GPU_FAN or (self.strategy == BATCHED
                                        and self.sampling_chose_edge_parallel):
            concurrency = max(1, int(self.roots_per_trace))
        else:
            concurrency = self.spec.num_sms
        cycles = self.fixed_cycles + remaining * mean / concurrency
        return self.spec.seconds(cycles)

    def extrapolated_teps(self, total_roots: int | None = None) -> float:
        """TEPS (Eq. 4) of the extrapolated ``total_roots``-source run."""
        t = self.extrapolated_seconds(total_roots)
        total = self.num_vertices if total_roots is None else int(total_roots)
        if t <= 0:
            return float("inf")
        return self.num_edges * total / t

    def extrapolated_mteps(self, total_roots: int | None = None) -> float:
        """:meth:`extrapolated_teps` in millions (Table III units)."""
        return self.extrapolated_teps(total_roots) / 1e6


@dataclass
class _Run:
    """One strategy's share of a call: its charges and result fields.
    Roots are charged under ``policy``, which is work-efficient for the
    first ``fixed`` (the classification phase of sampling and batched),
    or kept (``rows``, ``values``) for their batch."""

    strategy: str
    policy: object
    fixed: int = 0
    trace: RunTrace = field(default_factory=RunTrace)
    classification: dict | None = None
    chose: bool | None = None
    batches: bool = False
    roots_per_trace: int = 1
    bc: np.ndarray | None = None
    rows: list = field(default_factory=list)
    values: np.ndarray | None = None


def _list_schedule(costs_per_root, num_workers: int):
    """Greedy in-order list scheduling; returns (makespan, per-worker).

    Each root goes to the least-loaded worker, the lowest index on a
    tie (one block per SM, each pulling the next root).  The cluster
    model schedules each of its GPUs with it too.
    """
    heap = [(0.0, i) for i in range(max(1, int(num_workers)))]
    for c in costs_per_root:
        load, i = heap[0]
        heapq.heapreplace(heap, (load + float(c), i))
    workers = np.empty(len(heap))
    for load, i in heap:
        workers[i] = load
    return float(workers.max()), workers


class Device:
    """A simulated GPU executing betweenness-centrality runs."""

    #: Multiplier on the run's simulated cycles; ``1.0`` on a healthy
    #: device.  :class:`repro.resilience.FaultyDevice` sets it per rank
    #: to model stragglers.
    straggler_factor: float = 1.0
    #: Planned faults (``ActiveFaults``) and their rank; ``None`` on a
    #: healthy device.  :class:`repro.resilience.FaultyDevice` sets both.
    faults = None
    rank: int = -1

    def __init__(self, spec: GPUSpec = GTX_TITAN, costs: CostModel = DEFAULT_COSTS):
        self.spec = spec
        self.costs = costs

    def _inject_faults(self, g: CSRGraph, roots: np.ndarray) -> None:
        """Fault-injection hook called at the top of :meth:`run_bc`.

        No-op on a healthy device; :class:`repro.resilience.FaultyDevice`
        overrides it to raise planned :class:`~repro.errors.RankFailure`
        or :class:`~repro.errors.DeviceOutOfMemoryError` faults."""

    def _sdc_pending(self) -> bool:
        """Whether any planned ``sdc`` events target this device."""
        return (self.faults is not None
                and self.faults.sdc_pending_for(self.rank))

    # ------------------------------------------------------------------
    def run_bc(self, g: CSRGraph, strategy: str = "sampling", roots=None, *,
               alpha: int = ALPHA, beta: int = BETA,
               n_samps: int = DEFAULT_N_SAMPS, gamma: float = DEFAULT_GAMMA,
               min_frontier: int = MIN_FRONTIER, batch_size: int = 64,
               check_memory: bool = True, metrics=None, verify="off",
               fold: bool | FoldResult = True) -> DeviceRun:
        """Run BC on the device under ``strategy``: the one-strategy
        case of :meth:`run_strategies`, which documents the
        parameters."""
        return self.run_strategies(
            g, (strategy,), roots, alpha=alpha, beta=beta, n_samps=n_samps,
            gamma=gamma, min_frontier=min_frontier, batch_size=batch_size,
            check_memory=check_memory, metrics=metrics, verify=verify,
            fold=fold)[strategy]

    def run_strategies(self, g: CSRGraph, strategies, roots=None, *,
                       alpha: int = ALPHA, beta: int = BETA,
                       n_samps: int = DEFAULT_N_SAMPS,
                       gamma: float = DEFAULT_GAMMA,
                       min_frontier: int = MIN_FRONTIER, batch_size: int = 64,
                       check_memory: bool = True, metrics=None, verify="off",
                       fold: bool | FoldResult = True) -> dict:
        """Run BC on the device once, charged under each of
        ``strategies``; returns ``{strategy: DeviceRun}``, each what
        :meth:`run_bc` of that strategy alone returns.  Strategies differ
        only in how threads are assigned to each level's work, so every
        root is swept once (:func:`repro.bc.engine.run_roots`) and each
        lockstep group's profile is charged once per policy it needs.

        Parameters
        ----------
        roots:
            Sources to process (all vertices by default); a sample
            extrapolates via :meth:`DeviceRun.extrapolated_seconds`.
        alpha, beta:
            Hybrid thresholds (Algorithm 4), the paper's
            :data:`~repro.bc.policies.ALPHA` and
            :data:`~repro.bc.policies.BETA` by default.
        n_samps, gamma, min_frontier:
            Sampling parameters (Algorithm 5); defaults 512 / 4 /
            :data:`~repro.bc.policies.MIN_FRONTIER`.  The first
            ``n_samps`` of ``roots``, in the order given, are charged
            work-efficient and classify the graph.
        batch_size:
            Roots per batch of the ``batched`` strategy (Sarıyüce-style
            multi-source traversal; reference [33]).  It classifies like
            Algorithm 5; on small-diameter graphs each batch of the
            remaining roots is charged as one whole-device traversal of
            its roots' summed frontiers, and its values summed.
        fold:
            Degree-1 folding (:mod:`repro.bc.preprocess`; exact): on by
            default, ``False``, or a precomputed
            :class:`~repro.bc.preprocess.FoldResult`.  A non-trivial fold
            runs :func:`~repro.bc.preprocess.root_plan`'s traversals of
            the residual core, so traces are in core vertex ids and
            extrapolation is in core-traversal units.
        check_memory:
            Allocate all device structures first and raise
            :class:`DeviceOutOfMemoryError` if they exceed capacity.
            Every strategy passes both checks before any root is swept.
        metrics:
            Optional :class:`~repro.observability.MetricsRegistry` of a
            one-strategy call (``ValueError`` otherwise): ``device.*``
            and per-level ``engine.*`` series in a ``device.run_bc``
            span, and the decision-trace events that
            :func:`repro.observability.trace_document` exports.
        verify:
            A :class:`~repro.verify.VerificationPolicy`, a mode string
            (``"off"``/``"sampled"``/``"paranoid"``), or ``None``: the
            ABFT invariant suite per root and a checksum of the partial
            BC vector; a violation raises
            :class:`~repro.errors.SilentCorruptionError`.
        """
        from ..bc import engine  # deferred: the engine imports gpusim

        strategies = tuple(dict.fromkeys(strategies))
        for strategy in strategies:
            if strategy not in STRATEGIES:
                raise StrategyError(
                    f"unknown strategy {strategy!r}; known: {STRATEGIES}"
                )
        if metrics is None:
            metrics = NULL_REGISTRY
        elif metrics.enabled and len(strategies) > 1:
            raise ValueError("a metrics registry records one strategy's run")
        if not strategies:
            return {}
        # Degree-1 folding: the plan names the graph the kernels
        # traverse, their roots and weights, and how their sum returns
        # to original ids.
        plan = root_plan(g, roots, fold)
        roots, run_g, run_roots = plan.roots, plan.graph, plan.run_roots
        memory = {s: self._admit(g, run_g, roots, s, check_memory,
                                 batch_size)
                  for s in strategies}

        verify_policy = VerificationPolicy.coerce(verify)
        observer = None
        if verify_policy.enabled or self._sdc_pending():
            observer = RootObserver(run_g, verify_policy, metrics,
                                    faults=self.faults, rank=self.rank,
                                    target_weights=plan.target_weights,
                                    source_weights=plan.source_weights)

        knobs = {"hybrid": dict(alpha=int(alpha), beta=int(beta)),
                 "sampling": dict(n_samps=int(n_samps), gamma=float(gamma),
                                  min_frontier=int(min_frontier)),
                 BATCHED: dict(n_samps=int(n_samps), gamma=float(gamma),
                               batch_size=int(batch_size))}
        folded = {} if plan.fold is None else dict(
            folded=True, core_vertices=int(run_g.num_vertices),
            folded_vertices=int(plan.fold.num_folded),
            fold_rounds=int(plan.fold.rounds),
            fold_digest=plan.fold.digest(),
            core_traversals=int(run_roots.size))
        for strategy in strategies:
            metrics.record("run.params", strategy=strategy,
                           device=self.spec.name,
                           num_vertices=int(g.num_vertices),
                           num_edges=int(g.num_edges),
                           num_roots=int(roots.size),
                           **knobs.get(strategy, {}), **folded)

        we = FixedPolicy(WORK_EFFICIENT)
        policies = {"hybrid": HybridPolicy(alpha, beta), WORK_EFFICIENT: we,
                    "sampling": we, BATCHED: we}
        k = min(int(n_samps), run_roots.size)
        runs = [_Run(s, policies.get(s) or FixedPolicy(s),
                     k if s in _CLASSIFIED else 0) for s in strategies]
        bc = np.zeros(run_g.num_vertices, dtype=np.float64)
        sweep = _Sweep(self, run_g, run_roots, bc, runs, metrics,
                       verified=observer is not None, gamma=gamma,
                       min_frontier=int(min_frontier),
                       batch_size=int(batch_size))
        with metrics.span("device.run_bc", strategy=",".join(strategies),
                          device=self.spec.name):
            try:
                engine.run_roots(
                    run_g, run_roots, bc, sweep, observer=observer,
                    source_weights=(None if plan.source_weights is None
                                    else plan.source_weights[run_roots]),
                    target_weights=plan.target_weights,
                    width=1 if self._sdc_pending() else group_width(run_g))
                for run in runs:  # classification phases that took every root
                    if run.strategy in _CLASSIFIED and run.chose is None:
                        sweep.classify(run)
                if observer is not None:
                    observer.finish(bc)
            except SilentCorruptionError:
                # No recovery story below the resilient driver: a
                # poisoned result must not be returned as healthy.
                metrics.inc("verify.corruption_detected", layer="device")
                raise

        values = _scores(plan, g, bc)
        return {run.strategy: self._result(
                    run, g, roots,
                    _scores(plan, g, run.bc) if run.batches else values.copy(),
                    memory[run.strategy], plan.fold, metrics)
                for run in runs}

    # ------------------------------------------------------------------
    def _admit(self, g: CSRGraph, run_g: CSRGraph, roots, strategy: str,
               check_memory: bool, batch_size: int) -> dict:
        """The checks one strategy passes before any root is swept:
        planned faults and the device allocation; returns the memory
        report."""
        self._inject_faults(g, roots)
        mem = DeviceMemoryModel(capacity=self.spec.memory_bytes)
        if check_memory:
            for what, nbytes in strategy_footprint(
                    run_g, WORK_EFFICIENT if strategy in ("hybrid", "sampling")
                    else strategy, num_blocks=self.spec.num_sms,
                    batch_size=batch_size).items():
                mem.alloc(nbytes, what)
        return mem.report()

    def _schedule(self, cycles, serial: bool = False):
        """(makespan, per-SM cycles): greedy list scheduling of roots
        onto SMs, or a device-serial sum when each entry owns the
        whole device."""
        if serial:
            total = float(sum(cycles))
            return total, np.full(self.spec.num_sms, total)
        return _list_schedule(cycles, self.spec.num_sms)

    def _result(self, run: _Run, g: CSRGraph, roots, bc: np.ndarray,
                memory_report: dict, fold_result, metrics) -> DeviceRun:
        """Schedule one strategy's charged roots onto the device and
        record its ``device.*`` series."""
        strategy, trace = run.strategy, run.trace
        cycles = [rt.cycles for rt in trace.roots]
        # The classification phase is a fixed cost when extrapolating;
        # GPU-FAN roots and batches each own the whole device.
        fixed_cycles = (self._schedule(cycles[:run.fixed])[0] if run.fixed
                        else 0.0)
        makespan, trace.sm_cycles = self._schedule(
            cycles[run.fixed:], serial=run.batches or strategy == GPU_FAN)
        makespan += fixed_cycles
        slow = float(self.straggler_factor)
        if slow != 1.0:
            makespan *= slow
            fixed_cycles *= slow
        trace.makespan_cycles = makespan
        metrics.inc("device.runs", strategy=strategy)
        metrics.inc("device.roots", roots.size, strategy=strategy)
        metrics.inc("device.cycles", makespan, strategy=strategy)
        metrics.inc("device.bytes_allocated",
                    sum(memory_report.values()), strategy=strategy)
        metrics.set_gauge("device.makespan_cycles", makespan, strategy=strategy)
        metrics.set_gauge("device.sim_seconds", self.spec.seconds(makespan),
                          strategy=strategy)
        for rt in trace.roots:
            metrics.observe("device.root_cycles", rt.cycles, strategy=strategy)
        return DeviceRun(
            bc=bc,
            trace=trace,
            cycles=makespan,
            seconds=self.spec.seconds(makespan),
            strategy=strategy,
            spec=self.spec,
            num_vertices=g.num_vertices,
            num_edges=g.num_edges,
            roots=roots,
            memory_report=memory_report,
            sampling_chose_edge_parallel=run.chose,
            fixed_cycles=fixed_cycles,
            fixed_roots=run.fixed,
            roots_per_trace=run.roots_per_trace,
            fold=fold_result,
            classification=run.classification,
        )


def _scores(plan, g: CSRGraph, acc: np.ndarray) -> np.ndarray:
    """Original-id scores from the traversals' sum, halved on
    undirected graphs."""
    scores = plan.finish(acc)
    if g.undirected:
        scores /= 2.0
    return scores


class _Sweep(Charges):
    """The charges of a :meth:`Device.run_strategies` call: each run
    records its row of its policy's block at the root's turn, or keeps
    it for the root's batch."""

    def __init__(self, device: Device, g: CSRGraph, sources: np.ndarray,
                 bc: np.ndarray, runs: list, metrics, *, verified: bool,
                 gamma: float, min_frontier: int, batch_size: int):
        # Each run brings its policy; the device chunk of GPU-FAN and
        # the batches is unused by every other kernel.
        super().__init__(None, device.costs,
                         device.spec.concurrent_threads_per_sm,
                         device.spec.total_threads, metrics)
        self.g, self.sources, self.bc, self.runs = g, sources, bc, runs
        self.turn = 0
        self.verified, self.gamma = verified, gamma
        self.min_frontier, self.batch_size = min_frontier, batch_size

    def root(self, r: int) -> None:
        i, self.turn = self.turn, self.turn + 1
        for run in self.runs:
            if i == run.fixed and run.strategy in _CLASSIFIED:
                self.classify(run)
            if run.batches:
                run.rows.append(self.profile.series(r))
            else:
                run.trace.roots.append(self.record(r, run.policy))

    def add(self, bc: np.ndarray, delta: np.ndarray) -> None:
        i = self.turn - 1
        for run in self.runs:
            if run.batches:
                self.batch_row(run, i, delta)
            else:
                self.metrics.inc("engine.roots")
                self.metrics.observe("engine.root_cycles",
                                     run.trace.roots[i].cycles)
        bc += delta

    def classify(self, run: _Run) -> None:
        """Algorithm 5's classification, shared by sampling and
        batched: the median BFS depth of the run's fixed roots decides
        how the rest are charged."""
        record = classification_record(
            [rt.max_depth for rt in run.trace.roots], self.g.num_vertices,
            gamma=self.gamma)
        chose = bool(record["chose_edge_parallel"])
        if run.strategy == "sampling":
            method, audit = EDGE_PARALLEL, {"min_frontier": self.min_frontier}
            if chose:
                run.policy = FrontierGuardPolicy(self.min_frontier)
        else:
            # The ABFT suite of a verification observer is per-root by
            # construction, so verified runs never batch.
            chose = chose and not self.verified
            method, audit = BATCHED, {"batch_size": self.batch_size,
                                      "verified_per_root": self.verified}
            run.batches = chose and self.sources.size > run.fixed
            if run.batches:  # the fixed roots' sum, and a batch's rows
                run.bc, run.roots_per_trace = self.bc.copy(), self.batch_size
                run.values = np.empty((min(self.batch_size, self.sources.size
                                           - run.fixed), self.bc.size))
        self.metrics.inc(f"device.{run.strategy}_classifications",
                         chose=method if chose else WORK_EFFICIENT)
        self.metrics.record(f"decision.{run.strategy}", **audit, **record)
        run.classification, run.chose = record, chose

    def batch_row(self, run: _Run, i: int, delta: np.ndarray) -> None:
        """Keep steady root ``i``'s values for its batch; once the batch
        is complete, charge it as one traversal and add its sum."""
        j = (i - run.fixed) % self.batch_size
        run.values[j] = delta
        if j + 1 < self.batch_size and i + 1 < self.sources.size:
            return
        c = run.classification
        run.trace.roots.append(charge(
            FrontierProfile.summed(int(self.sources[i - j]), run.rows),
            BatchedPolicy(j + 1, c["median_depth"], c["depth_cutoff"]),
            self.costs, self.chunk, self.device_chunk, self.metrics))
        self.metrics.inc("engine.roots", j + 1)
        run.bc += run.values[:j + 1].sum(axis=0)
        run.rows = []
