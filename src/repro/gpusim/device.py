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
import time
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
from ..bc.preprocess import FoldResult, fold_degree_one, per_root_correction
from ..bc.sampling import (
    DEFAULT_GAMMA,
    DEFAULT_MIN_FRONTIER,
    DEFAULT_N_SAMPS,
    classification_record,
)
from ..errors import GraphFormatError, SilentCorruptionError, StrategyError
from ..graph.csr import CSRGraph
from ..observability.registry import NULL_REGISTRY
from ..verify import RootChecker, VerificationPolicy
from .cost import DEFAULT_COSTS, CostModel
from .memory import DeviceMemoryModel, strategy_footprint
from .spec import GTX_TITAN, GPUSpec
from .trace import RunTrace

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


class _RunObserver:
    """Threads SDC injection and ABFT verification through one run.

    Implements the engine's observer protocol (``after_forward`` /
    ``after_accumulation``, called per root with its lockstep group and
    row): immediately after the forward sweep it fires any planned
    ``sigma``/``dist`` bit-flips for the current root position, after
    accumulation any ``delta`` flips — corruption strikes the
    *intermediate* arrays, exactly where a resident-memory upset would —
    then runs the policy's per-root invariant suite.  The suite runs
    for all of a group's checked roots at once
    (:meth:`~repro.verify.RootChecker.rows_pass`); a root that does not
    pass there, or was struck by a bit-flip, gets the per-root
    :meth:`~repro.verify.RootChecker.check_root` and its diagnosis.  On
    the bare device path a violation raises
    :class:`~repro.errors.SilentCorruptionError`; there is no recovery
    story below the resilient driver, so a poisoned result must not be
    returned as healthy.
    """

    def __init__(self, device: "Device", g: CSRGraph,
                 policy: VerificationPolicy, metrics):
        self.device = device
        self.g = g
        self.policy = policy
        self.checker = RootChecker(policy, metrics) if policy.enabled else None
        self.metrics = metrics
        #: Sum of every accepted root's dependencies — the reference the
        #: final partial-BC checksum is validated against.
        self.expected_sum = 0.0
        #: Weighted-traversal context for degree-1 folded runs: the
        #: core's target-weight vector and (full runs only) the
        #: per-core-root source weights the engine pre-scales delta by.
        self.target_weights: np.ndarray | None = None
        self.source_weights: np.ndarray | None = None
        self._pos = 0
        self._events: list = []
        self._group = None
        self._passed: dict = {}

    def _apply(self, events, site: str, arr: np.ndarray) -> None:
        hits = [ev for ev in events if ev.site == site]
        if not hits:
            return
        from ..resilience.faults import apply_sdc

        for ev in hits:
            apply_sdc(ev, arr, seed=self.device._sdc_seed())
            self.metrics.inc("verify.faults_injected", site=site)

    def after_forward(self, grp, r: int) -> None:
        self._events = list(self.device._sdc_events(self._pos))
        if self._events:
            fwd = grp.row(r)
            self._apply(self._events, "sigma", fwd.sigma)
            self._apply(self._events, "dist", fwd.distances)

    def _group_passed(self, grp, delta: np.ndarray) -> dict:
        """:meth:`RootChecker.rows_pass` over the group's checked rows,
        once per group."""
        if grp is not self._group:
            rows = [r for r, s in enumerate(grp.sources.tolist())
                    if self.policy.checks_root(s)]
            self._group = grp
            self._passed = self.checker.rows_pass(
                self.g, grp, delta, rows, self.target_weights,
                self.source_weights)
        return self._passed

    def after_accumulation(self, grp, r: int, delta: np.ndarray) -> None:
        events, self._events = self._events, []
        row = delta[r]
        self._apply(events, "delta", row)
        self._pos += 1
        root = int(grp.sources[r])
        if self.checker is not None and self.policy.checks_root(root):
            t0 = time.perf_counter()
            passed = None if events else self._group_passed(grp, delta).get(r)
            if passed is not None:
                self.checker.count(passed)
                violations = []
            else:
                sw = (1.0 if self.source_weights is None
                      else float(self.source_weights[root]))
                violations = self.checker.check_root(
                    self.g, grp.row(r), row,
                    target_weights=self.target_weights, source_weight=sw)
            self.metrics.inc("verify.overhead_seconds",
                             time.perf_counter() - t0)
            if violations:
                self.metrics.inc("verify.corruption_detected", layer="device")
                raise SilentCorruptionError(violations, root=root)
        self.expected_sum += float(row.sum())

    def finish(self, bc: np.ndarray) -> None:
        """Partial-BC injection + unit checksum, once per run (called
        before the undirected halving so the checksum reference and the
        vector are in the same units)."""
        self._apply(self.device._sdc_partial_events(), "partial", bc)
        if self.checker is not None:
            t0 = time.perf_counter()
            violations = self.checker.check_partial(bc, self.expected_sum)
            self.metrics.inc("verify.overhead_seconds",
                             time.perf_counter() - t0)
            if violations:
                self.metrics.inc("verify.corruption_detected", layer="device")
                raise SilentCorruptionError(violations)


@dataclass
class _Run:
    """One run's shared state: what the per-root loop needs, the trace
    being built, and the strategy's result fields."""

    g: CSRGraph
    bc: np.ndarray
    chunk: int
    metrics: object
    observer: _RunObserver | None
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

    def __init__(self, spec: GPUSpec = GTX_TITAN, costs: CostModel = DEFAULT_COSTS):
        self.spec = spec
        self.costs = costs

    def _inject_faults(self, g: CSRGraph, roots: np.ndarray) -> None:
        """Fault-injection hook called at the top of :meth:`run_bc`.

        No-op on a healthy device; :class:`repro.resilience.FaultyDevice`
        overrides it to raise planned :class:`~repro.errors.RankFailure`
        or :class:`~repro.errors.DeviceOutOfMemoryError` faults."""

    # -- silent-corruption hooks (overridden by FaultyDevice) ----------
    def _sdc_pending(self) -> bool:
        """Whether any planned ``sdc`` events target this device."""
        return False

    def _sdc_events(self, root_pos: int) -> list:
        """Planned per-root bit-flips for the ``root_pos``-th root of
        this run (consumed on return)."""
        return []

    def _sdc_partial_events(self) -> list:
        """Planned bit-flips against this device's partial BC vector."""
        return []

    def _sdc_seed(self) -> int:
        """Seed the SDC victim-selection RNG derives from."""
        return 0

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
            fold is active every strategy traverses the residual core
            (weighted traversals; per-root host traversals for explicit
            ``roots``), trace entries are in core vertex ids, and
            :meth:`DeviceRun.extrapolated_seconds` extrapolates in
            core-traversal units.
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
        full_run = roots is None
        if roots is None:
            roots = np.arange(n, dtype=np.int64)
        else:
            roots = np.asarray(roots, dtype=np.int64).ravel()
            if roots.size and (roots.min() < 0 or roots.max() >= n):
                raise IndexError("roots out of range")

        self._inject_faults(g, roots)

        if strict_reader and strategy in (EDGE_PARALLEL, VERTEX_PARALLEL):
            isolated = g.isolated_vertices()
            if isolated.size:
                raise GraphFormatError(
                    f"reference reader cannot load graphs with isolated "
                    f"vertices ({isolated.size} present)"
                )

        # -- degree-1 folding: pick the graph the kernels traverse -----
        fold_result: FoldResult | None = None
        if isinstance(fold, FoldResult):
            fold_result = fold
        elif fold:
            fold_result = fold_degree_one(g)
        folded = fold_result is not None and not fold_result.is_identity
        if folded:
            run_g = fold_result.core
            target_weights = fold_result.core_weights
            if full_run:
                # Every core root once, weighted by its absorbed
                # subtree; credits close the folded vertices' scores.
                run_roots = np.arange(run_g.num_vertices, dtype=np.int64)
                source_weights = target_weights
                post_extra = fold_result.credit
            else:
                # Explicit roots: one weighted traversal from each
                # root's residual host plus its closed-form correction.
                run_roots = np.empty(roots.size, dtype=np.int64)
                post_extra = np.zeros(n, dtype=np.float64)
                for i, a in enumerate(roots):
                    cr, corr = per_root_correction(fold_result, int(a))
                    run_roots[i] = cr
                    post_extra += corr
                source_weights = None
        else:
            run_g = g
            run_roots = roots
            target_weights = None
            source_weights = None
            post_extra = None

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
            observer = _RunObserver(self, run_g, verify_policy, metrics)
            observer.target_weights = target_weights
            observer.source_weights = source_weights

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
        if folded:
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
            self._execute(run, strategy, run_roots, alpha=alpha, beta=beta,
                          n_samps=n_samps, gamma=gamma,
                          min_frontier=min_frontier, batch_size=batch_size)
            if observer is not None:
                observer.finish(run.bc)

        trace, bc = run.trace, run.bc
        makespan, fixed_cycles = trace.makespan_cycles, run.fixed_cycles
        if folded:
            bc = fold_result.expand(bc) + post_extra
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
            fold=fold_result if folded else None,
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
