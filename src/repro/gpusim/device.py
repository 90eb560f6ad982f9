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
    BATCHED,
    EDGE_PARALLEL,
    GPU_FAN,
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
from ..bc.sampling import (
    DEFAULT_GAMMA,
    DEFAULT_MIN_FRONTIER,
    DEFAULT_N_SAMPS,
    classification_record,
)
from ..errors import GraphFormatError, SilentCorruptionError, StrategyError
from ..graph.csr import CSRGraph
from ..observability.registry import NULL_REGISTRY
from ..verify import RootObserver, VerificationPolicy
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
        # runs that fell back to per-root traversal included — processes
        # num_sms roots concurrently.
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
    """One run's shared state: what the per-root loop needs, the trace
    being built, and the strategy's result fields."""

    g: CSRGraph
    bc: np.ndarray
    chunk: int
    metrics: object
    observer: RootObserver | None
    source_weights: np.ndarray | None
    target_weights: np.ndarray | None
    trace: RunTrace = field(default_factory=RunTrace)
    chose: bool | None = None
    fixed_cycles: float = 0.0
    fixed_roots: int = 0
    roots_per_trace: int = 1


def _list_schedule(costs_per_root, num_workers: int):
    """Greedy in-order list scheduling; returns (makespan, per-worker)."""
    workers = [0.0] * max(1, int(num_workers))
    heap = [(0.0, i) for i in range(len(workers))]
    heapq.heapify(heap)
    for c in costs_per_root:
        load, i = heapq.heappop(heap)
        load += float(c)
        workers[i] = load
        heapq.heappush(heap, (load, i))
    return max(workers), np.asarray(workers)


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
    def run_bc(
        self,
        g: CSRGraph,
        strategy: str = "sampling",
        roots=None,
        *,
        alpha: int | None = None,
        beta: int | None = None,
        n_samps: int = DEFAULT_N_SAMPS,
        gamma: float = DEFAULT_GAMMA,
        min_frontier: int = DEFAULT_MIN_FRONTIER,
        batch_size: int = 64,
        strict_reader: bool = False,
        check_memory: bool = True,
        metrics=None,
        verify="off",
        fold: bool | FoldResult = True,
    ) -> DeviceRun:
        """Run BC on the device under ``strategy``.

        Parameters
        ----------
        roots:
            Sources to process (all vertices by default).  Experiments
            on large graphs pass a sample and extrapolate via
            :meth:`DeviceRun.extrapolated_seconds`.
        alpha, beta:
            Hybrid thresholds (Algorithm 4); defaults 768 / 512.
        n_samps, gamma, min_frontier:
            Sampling parameters (Algorithm 5); defaults 512 / 4 / 512.
        batch_size:
            Roots per frontier-matrix step of the ``batched`` strategy
            (Sarıyüce-style multi-source traversal; reference [33]).
            The strategy classifies depth with its first ``n_samps``
            roots exactly like Algorithm 5 and routes the remainder
            through whole-device batch traversals only when the sampled
            median depth is below the ``gamma`` cutoff (small-diameter
            graphs — dense frontiers, BLAS-shaped work); deep graphs
            fall back to per-root work-efficient traversal.
        fold:
            Apply the degree-1 folding preprocess before traversal (on
            by default; exact — see :mod:`repro.bc.preprocess`).  Pass
            ``False`` for the original graph, or a precomputed
            :class:`~repro.bc.preprocess.FoldResult` to skip
            re-folding.  Identity folds (directed or pendant-free
            graphs) take the legacy path unchanged.  When a non-trivial
            fold is active every strategy runs
            :func:`~repro.bc.preprocess.root_plan`'s traversals of the
            residual core (each core root weighted by its absorbed
            subtree for a full run; one traversal from each root's
            residual host for explicit ``roots``), trace entries are in
            core vertex ids, and :meth:`DeviceRun.extrapolated_seconds`
            extrapolates in core-traversal units.  The core-space sum
            returns to original ids once, through the plan.
        strict_reader:
            Model the Jia et al. reference reader, which rejects graphs
            containing isolated vertices (Section V-B) — only honoured
            for the vertex-/edge-parallel baselines.
        check_memory:
            Allocate all device structures first and raise
            :class:`DeviceOutOfMemoryError` if they exceed capacity.
        metrics:
            Optional :class:`~repro.observability.MetricsRegistry`.
            Records ``device.*`` series (roots, cycles, makespan, bytes
            allocated) plus the per-level ``engine.*`` series of every
            root, inside a ``device.run_bc`` span, and the run's
            decision-trace events (``run.params``, per-level
            ``decision.*``, the sampling classification).  Export the
            finished trace with :func:`repro.observability.run_profile`
            (kernel profile) or
            :func:`repro.observability.trace_document` (decision audit)
            — one run, two exporters.
        verify:
            A :class:`~repro.verify.VerificationPolicy`, a mode string
            (``"off"``/``"sampled"``/``"paranoid"``), or ``None``.
            When enabled, each root's forward/accumulation state passes
            the ABFT invariant suite and the final partial BC vector is
            checksummed; a violation raises
            :class:`~repro.errors.SilentCorruptionError`.
        """
        if metrics is None:
            metrics = NULL_REGISTRY
        if strategy not in STRATEGIES:
            raise StrategyError(
                f"unknown strategy {strategy!r}; known: {STRATEGIES}"
            )
        n = g.num_vertices
        # Degree-1 folding: the plan names the graph the kernels
        # traverse, their roots and weights, and how their sum returns
        # to original ids.
        plan = root_plan(g, roots, fold)
        roots, run_g, run_roots = plan.roots, plan.graph, plan.run_roots
        target_weights, source_weights = (plan.target_weights,
                                          plan.source_weights)
        fold_result = plan.fold

        self._inject_faults(g, roots)

        if strict_reader and strategy in (EDGE_PARALLEL, VERTEX_PARALLEL):
            isolated = g.isolated_vertices()
            if isolated.size:
                raise GraphFormatError(
                    f"reference reader cannot load graphs with isolated "
                    f"vertices ({isolated.size} present)"
                )

        memory_report: dict = {}
        if check_memory:
            mem = DeviceMemoryModel(capacity=self.spec.memory_bytes)
            footprint = strategy_footprint(
                run_g, self._memory_strategy(strategy),
                num_blocks=self.spec.num_sms, batch_size=batch_size,
            )
            for what, nbytes in footprint.items():
                mem.alloc(nbytes, what)
            memory_report = mem.report()

        verify_policy = VerificationPolicy.coerce(verify)
        observer = None
        if verify_policy.enabled or self._sdc_pending():
            observer = RootObserver(run_g, verify_policy, metrics,
                                    faults=self.faults, rank=self.rank,
                                    target_weights=target_weights,
                                    source_weights=source_weights)

        params = {"strategy": strategy, "device": self.spec.name,
                  "num_vertices": int(n), "num_edges": int(g.num_edges),
                  "num_roots": int(roots.size)}
        if strategy == "hybrid":
            params["alpha"] = int(alpha if alpha is not None
                                  else HybridPolicy().alpha)
            params["beta"] = int(beta if beta is not None
                                 else HybridPolicy().beta)
        elif strategy == "sampling":
            params.update(n_samps=int(n_samps), gamma=float(gamma),
                          min_frontier=int(min_frontier))
        elif strategy == "batched":
            params.update(n_samps=int(n_samps), gamma=float(gamma),
                          batch_size=int(batch_size))
        if fold_result is not None:
            params.update(folded=True,
                          core_vertices=int(run_g.num_vertices),
                          folded_vertices=int(fold_result.num_folded),
                          fold_rounds=int(fold_result.rounds),
                          fold_digest=fold_result.digest(),
                          core_traversals=int(run_roots.size))
        metrics.record("run.params", **params)

        run = _Run(g=run_g, bc=np.zeros(run_g.num_vertices, dtype=np.float64),
                   chunk=self.spec.concurrent_threads_per_sm, metrics=metrics,
                   observer=observer, source_weights=source_weights,
                   target_weights=target_weights)
        with metrics.span("device.run_bc", strategy=strategy,
                          device=self.spec.name):
            try:
                self._execute(run, strategy, run_roots, alpha=alpha,
                              beta=beta, n_samps=n_samps, gamma=gamma,
                              min_frontier=min_frontier,
                              batch_size=batch_size)
                if observer is not None:
                    observer.finish(run.bc)
            except SilentCorruptionError:
                # No recovery story below the resilient driver: a
                # poisoned result must not be returned as healthy.
                metrics.inc("verify.corruption_detected", layer="device")
                raise

        trace, bc = run.trace, plan.finish(run.bc)
        makespan, fixed_cycles = trace.makespan_cycles, run.fixed_cycles
        slow = float(self.straggler_factor)
        if slow != 1.0:
            makespan *= slow
            fixed_cycles *= slow
            trace.makespan_cycles = makespan
        if g.undirected:
            bc /= 2.0
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
            num_vertices=n,
            num_edges=g.num_edges,
            roots=roots,
            memory_report=memory_report,
            sampling_chose_edge_parallel=run.chose,
            fixed_cycles=fixed_cycles,
            fixed_roots=run.fixed_roots,
            roots_per_trace=run.roots_per_trace,
            fold=fold_result,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _memory_strategy(strategy: str) -> str:
        """Map run strategies to memory-footprint classes."""
        if strategy in ("hybrid", "sampling"):
            return WORK_EFFICIENT
        return strategy

    @staticmethod
    def _policy(strategy: str, alpha, beta):
        if strategy == "hybrid":
            kw = {k: v for k, v in (("alpha", alpha), ("beta", beta))
                  if v is not None}
            return HybridPolicy(**kw)
        return FixedPolicy(strategy)

    def _roots(self, run: "_Run", roots, policy,
               device_chunk: int | None = None) -> list:
        """The root loop: run ``roots`` under ``policy`` in lockstep
        groups (one root at a time while silent-corruption faults are
        planned, so each bit-flip strikes its own root's state before
        accumulation), append their traces, return the per-root
        cycles."""
        from ..bc import engine  # deferred: the engine imports gpusim

        roots = np.asarray(roots, dtype=np.int64)
        traces = engine.run_roots(
            run.g, roots, run.bc, policy, self.costs, run.chunk,
            device_chunk=device_chunk, metrics=run.metrics,
            observer=run.observer,
            source_weights=(None if run.source_weights is None
                            else run.source_weights[roots]),
            target_weights=run.target_weights,
            width=1 if self._sdc_pending() else group_width(run.g))
        run.trace.roots.extend(traces)
        return [rt.cycles for rt in traces]

    def _schedule(self, cycles, serial: bool = False):
        """(makespan, per-SM cycles): greedy list scheduling of roots
        onto SMs, or a device-serial sum when each entry owns the
        whole device."""
        if serial:
            total = float(sum(cycles))
            return total, np.full(self.spec.num_sms, total)
        return _list_schedule(cycles, self.spec.num_sms)

    def _classify(self, run: "_Run", roots, n_samps, gamma):
        """Algorithm 5's classification phase, shared by sampling and
        batched: the first ``n_samps`` roots run work-efficient (a fixed
        cost when extrapolating) and their median BFS depth decides.
        Returns the remaining roots and the classification record."""
        k = min(int(n_samps), roots.size)
        run.fixed_cycles, _ = self._schedule(
            self._roots(run, roots[:k], FixedPolicy(WORK_EFFICIENT)))
        run.fixed_roots = k
        depths = [rt.max_depth for rt in run.trace.roots]
        return roots[k:], classification_record(depths, run.g.num_vertices,
                                                gamma=gamma)

    def _execute(self, run: "_Run", strategy: str, roots, *, alpha, beta,
                 n_samps, gamma, min_frontier, batch_size) -> None:
        """Run ``strategy``'s phases, filling ``run``'s trace and result
        fields.  Fixed, hybrid and GPU-FAN runs are one phase; sampling
        and batched classify first and route the remaining roots."""
        metrics = run.metrics
        if strategy not in ("sampling", "batched"):
            serial = strategy == GPU_FAN
            cycles = self._roots(run, roots, self._policy(strategy, alpha, beta),
                                 self.spec.total_threads if serial else None)
            makespan, per_sm = self._schedule(cycles, serial)
        else:
            rest, classification = self._classify(run, roots, n_samps, gamma)
            chose = bool(classification["chose_edge_parallel"])
            if strategy == "sampling":
                metrics.inc("device.sampling_classifications",
                            chose=EDGE_PARALLEL if chose else WORK_EFFICIENT)
                metrics.record("decision.sampling",
                               min_frontier=int(min_frontier), **classification)
                policy = (FrontierGuardPolicy(min_frontier) if chose
                          else FixedPolicy(WORK_EFFICIENT))
            else:
                # The ABFT suite of a verification observer is per-root
                # by construction, so verified runs never batch.
                verified = run.observer is not None
                chose = chose and not verified
                metrics.inc("device.batched_classifications",
                            chose=BATCHED if chose else WORK_EFFICIENT)
                metrics.record("decision.batched", batch_size=int(batch_size),
                               verified_per_root=verified, **classification)
                policy = FixedPolicy(WORK_EFFICIENT)
            if strategy == "batched" and chose and rest.size:
                makespan, per_sm = self._batches(run, rest, int(batch_size),
                                                 classification)
            else:
                makespan, per_sm = self._schedule(self._roots(run, rest, policy))
            run.chose = chose
            makespan = run.fixed_cycles + makespan
        run.trace.makespan_cycles = makespan
        run.trace.sm_cycles = per_sm

    def _batches(self, run: "_Run", roots, batch_size: int, classification):
        """Sarıyüce-style multi-source phase (reference [33]): the roots
        advance ``batch_size`` at a time through whole-device
        frontier-matrix steps, one after another; a batch whose path
        counts overflow float64 falls back to the per-root loop (the
        engine rescales sigma per level), its roots running per-SM."""
        from ..bc import batched  # deferred: bc.batched imports gpusim

        A = batched._adjacency(run.g)
        batch_cycles: list = []
        retry_cycles: list = []
        for lo in range(0, roots.size, batch_size):
            batch = roots[lo:lo + batch_size]
            policy = BatchedPolicy(batch.size, classification["median_depth"],
                                   classification["depth_cutoff"])
            try:
                rt = batched.run_batch(
                    run.g, batch, run.bc, policy, self.costs, run.chunk,
                    self.spec.total_threads, A=A, metrics=run.metrics,
                    source_weights=run.source_weights,
                    target_weights=run.target_weights)
            except FloatingPointError:
                run.metrics.inc("batched.overflow_retries")
                retry_cycles += self._roots(run, batch,
                                            FixedPolicy(WORK_EFFICIENT))
                continue
            run.trace.roots.append(rt)
            batch_cycles.append(rt.cycles)
        if batch_cycles:
            run.roots_per_trace = batch_size
        makespan = (self._schedule(batch_cycles, serial=True)[0]
                    + self._schedule(retry_cycles)[0])
        return makespan, np.full(self.spec.num_sms, makespan)
