"""Fault-tolerant distributed BC driver.

:func:`resilient_distributed_bc` is the paper's multi-GPU program
(Section V-D): the roots of the :func:`~repro.bc.preprocess.root_plan`
are partitioned over ranks, each rank accumulates a local BC vector
and the vectors are reduced.  With no fault plan that is all it does
(plus checkpoints), so it is the value-exact distributed program.  It
exploits the additive structure of Brandes's accumulation (Eq. 3: BC
is a plain sum of per-root dependency vectors), which makes the
computation naturally checkpointable and re-partitionable:

1. Roots are block-partitioned over ranks; each rank's partition is a
   **checkpointable unit**.  A completed unit's partial BC vector is
   written to the (simulated) host-side checkpoint store and survives
   the rank's later death.
2. A rank that fail-stops mid-compute loses its in-progress unit; its
   orphaned roots are re-partitioned across the survivors after an
   exponential backoff (:func:`repro._util.backoff_delay`, the
   service's retry policy), up to ``max_retries`` rounds.  Transient faults
   (simulated :class:`~repro.errors.DeviceOutOfMemoryError`) are
   retried on the same rank.
3. A rank that dies *at the final reduce* loses nothing: its
   checkpointed partial is contributed from stable storage and the
   collective is re-entered with the survivors.
4. When retries are exhausted, no survivors remain, or the wall-clock
   budget is hit, the driver **degrades gracefully**: the unfinished
   roots' contribution is estimated by the Brandes–Pich sampled
   estimator (``repro.bc.approx`` style — sample ``k`` of the pending
   roots, rescale by ``pending / k``) and the result is flagged
   ``exact=False`` instead of raising.

5. Ranks that **lie** (the ``sdc`` fault kind — a silent bit-flip in a
   per-root array, a unit partial, or an in-flight reduce buffer) are
   caught by the ABFT invariant suite of :mod:`repro.verify` when a
   verification policy is active: the corrupted root (or unit) is
   quarantined and recomputed like any orphan, and the final reduce is
   checksummed against stable storage and re-entered on mismatch.

With no faults injected — or with any single fail-stop failure and at
least one retry — the returned values are bit-for-bit-close to the
serial :func:`repro.bc.betweenness_centrality`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .._util import backoff_delay, partition_roots
from ..bc.frontier import group_width
from ..bc.preprocess import FoldResult, root_plan
from ..errors import (
    ClusterConfigurationError,
    RankFailure,
    RetryExhaustedError,
    SilentCorruptionError,
)
from ..graph.csr import CSRGraph
from ..observability.clock import SpanClock
from ..observability.registry import NULL_REGISTRY
from ..verify import RootChecker, RootObserver, VerificationPolicy
from .faults import (
    ActiveFaults,
    FaultPlan,
    FaultyComm,
    OOM,
    FAIL_STOP,
    SDC,
)

__all__ = [
    "CheckpointStore",
    "RankIncident",
    "ResilientRun",
    "resilient_distributed_bc",
]


class CheckpointStore:
    """Host-side stable storage for completed partition units.

    One entry per rank: the elementwise sum of every unit that rank
    completed (a survivor may finish several units across recovery
    rounds; summing locally before the reduce is exactly what a real
    rank would do).  Entries survive their rank's death — that is the
    point of checkpointing — so the final reduce can still include a
    dead rank's finished work.
    """

    def __init__(self, num_ranks: int, num_vertices: int):
        self.num_ranks = int(num_ranks)
        self.num_vertices = int(num_vertices)
        self._partials: dict = {}
        self.completed_roots = 0
        self.units = 0

    def commit(self, rank: int, roots: np.ndarray, partial: np.ndarray) -> None:
        """Checkpoint one completed unit for ``rank``."""
        rank = int(rank)
        if rank in self._partials:
            self._partials[rank] = self._partials[rank] + partial
        else:
            self._partials[rank] = partial.copy()
        self.completed_roots += int(roots.size)
        self.units += 1

    def per_rank_values(self) -> list:
        """Per-rank vectors for the reduce; ranks that checkpointed
        nothing (zero roots, or died before finishing a unit)
        contribute zero vectors rather than being dropped."""
        zero = np.zeros(self.num_vertices, dtype=np.float64)
        return [self._partials.get(r, zero) for r in range(self.num_ranks)]


@dataclass(frozen=True)
class RankIncident:
    """One observed fault during a resilient run."""

    rank: int
    kind: str          # "fail-stop" | "oom" | "sdc"
    where: str         # "compute", a collective name, or (for sdc) the
                       # violated invariant ("range"/"sigma"/"checksum"/
                       # "partial"/"reduce"/...)
    attempt: int       # recovery round in which it fired (0 = first try)
    roots_lost: int    # orphaned roots that had to be reassigned


@dataclass
class ResilientRun:
    """Outcome record of one :func:`resilient_distributed_bc` run."""

    values: np.ndarray
    exact: bool
    num_ranks: int
    survivors: int
    total_roots: int
    completed_roots: int
    recomputed_roots: int
    degraded_roots: int
    retries: int
    incidents: list = field(default_factory=list)
    backoff_seconds: float = 0.0
    compute_seconds: float = 0.0
    #: Attribution overlay: simulated seconds spent on *recovery work*
    #: (recomputing orphaned units + backoff pauses).  Every second here
    #: is already counted once in ``compute_seconds`` or
    #: ``backoff_seconds`` — do NOT add it to them (doing exactly that
    #: was the old double-charge bug).
    recovery_seconds: float = 0.0
    comm_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    #: Simulated seconds charged for the degraded sampling estimate.
    degrade_seconds: float = 0.0
    #: Real wall seconds of the run (``elapsed_seconds`` minus charges).
    wall_seconds: float = 0.0
    #: Total charged simulated seconds; invariant:
    #: ``sim_seconds == compute_seconds + backoff_seconds + degrade_seconds``
    #: and ``elapsed_seconds == wall_seconds + sim_seconds`` — both the
    #: budget check and this report read the same
    #: :class:`~repro.observability.SpanClock`.
    sim_seconds: float = 0.0
    degrade_samples_used: int = 0
    #: Verification mode the run executed under ("off"/"sampled"/
    #: "paranoid").
    verification: str = "off"
    #: ABFT detections: invariant violations caught (per-root, partial,
    #: or reduce checksum).
    corruption_detected: int = 0
    #: Roots discarded after a detection and recomputed (or degraded).
    roots_requarantined: int = 0
    #: Checksummed-reduce re-entries after an in-flight corruption.
    reduce_retries: int = 0
    #: True when a reduce-level corruption could not be repaired within
    #: the retry budget; the values carry the corruption and the run is
    #: not exact.
    corrupted_reduce: bool = False

    @property
    def degraded(self) -> bool:
        """True when any root's contribution is a sampled estimate."""
        return self.degraded_roots > 0

    def summary(self) -> str:
        """Human-readable multi-line report (used by the CLI)."""
        lines = [
            f"ranks            : {self.num_ranks} ({self.survivors} survived)",
            f"roots            : {self.total_roots} total / "
            f"{self.completed_roots} exact / {self.degraded_roots} degraded",
            f"recovery         : {self.retries} retry round(s), "
            f"{self.recomputed_roots} roots recomputed",
            f"verification     : {self.verification} "
            f"({self.corruption_detected} detection(s), "
            f"{self.roots_requarantined} roots requarantined, "
            f"{self.reduce_retries} reduce retry(s))",
            f"incidents        : {len(self.incidents)}",
        ]
        for inc in self.incidents:
            lines.append(
                f"  - rank {inc.rank} {inc.kind} at {inc.where!r} "
                f"(attempt {inc.attempt}, {inc.roots_lost} roots orphaned)"
            )
        lines.append(
            f"charged seconds  : compute={self.compute_seconds:.4f} "
            f"backoff={self.backoff_seconds:.4f} "
            f"degrade={self.degrade_seconds:.4f} "
            f"comm={self.comm_seconds:.6f} "
            f"(of which recovery={self.recovery_seconds:.4f})"
        )
        verdict = "EXACT" if self.exact else "DEGRADED"
        if self.corrupted_reduce:
            verdict += " (unrepaired reduce corruption)"
        lines.append(f"result           : {verdict}")
        return "\n".join(lines)


def _redistribute(orphans: np.ndarray, survivors: list) -> dict:
    """Re-partition orphaned roots across the surviving ranks."""
    parts = partition_roots(orphans.size, len(survivors))
    return {rank: orphans[part] for rank, part in zip(survivors, parts)}


def resilient_distributed_bc(
    g: CSRGraph,
    num_ranks: int,
    *,
    fault_plan: FaultPlan | None = None,
    comm: FaultyComm | None = None,
    max_retries: int = 3,
    backoff_base: float = 0.05,
    wall_clock_budget: float | None = None,
    per_root_seconds: float = 0.0,
    degrade_samples: int = 8,
    degrade: bool = True,
    seed: int = 0,
    metrics=None,
    clock: SpanClock | None = None,
    verify="off",
    fold: bool | FoldResult = True,
) -> ResilientRun:
    """Exact distributed BC that survives injected rank failures.

    Parameters
    ----------
    fault_plan:
        The adversary (see :class:`repro.resilience.FaultPlan`); ``None``
        runs fault-free.
    comm:
        A prepared :class:`FaultyComm` (must match ``num_ranks``); built
        from ``fault_plan`` when omitted.
    max_retries:
        Recovery rounds after the first attempt.  Each round reassigns
        the orphaned roots across survivors after an exponential
        backoff of :func:`~repro._util.backoff_delay` simulated seconds
        (base ``backoff_base``, capped at its 2 s default, jitter drawn
        from ``seed``).
    wall_clock_budget:
        Cap, in seconds, on real elapsed time plus charged simulated
        time (compute + backoff); when exceeded, remaining roots are
        degraded immediately.
    per_root_seconds:
        Charge rate for simulated compute time; ``0.0`` charges only
        backoff and communication.
    degrade_samples:
        Roots sampled for the degraded estimate of unfinished work.
    degrade:
        When ``False``, raise :class:`~repro.errors.RetryExhaustedError`
        instead of degrading (strict mode).
    seed:
        Seed for the degradation sampler and the backoff jitter.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`; records
        ``resilience.*`` counters (incidents by kind/where, retries,
        recomputed/degraded roots) and per-rank compute spans (the
        per-rank timeline).  Defaults to the no-op registry.
    clock:
        The :class:`~repro.observability.SpanClock` both the wall-clock
        budget check and the final ``elapsed_seconds`` report read.
        Defaults to ``metrics.clock`` when a registry is given, else a
        fresh clock.  Simulated charges (compute makespan, backoff,
        degrade sampling) are advanced on it exactly once each, so the
        two paths cannot disagree.
    verify:
        A :class:`~repro.verify.VerificationPolicy`, a mode string
        (``"off"``/``"sampled"``/``"paranoid"``), or ``None``.  When
        enabled, every checked root runs the ABFT invariant suite; a
        root caught corrupted (an ``sdc`` bit-flip in its ``sigma``/
        ``dist``/``delta``) is **quarantined** — discarded and re-run in
        the next recovery round like an orphan of a crashed rank.  A
        corrupted unit-level partial discards the whole unit.  The final
        reduce is checksummed against the stable-storage partials and
        re-entered on mismatch (the injector corrupts in-flight copies,
        so redundant reduction heals).  Budget exhaustion degrades as
        usual, with the corruption surfaced in the returned record
        instead of silently poisoning the values.
    fold:
        Degree-1 folding (:mod:`repro.bc.preprocess`; default on).
        When the fold is non-trivial, the **checkpointed roots are
        folded-graph roots**: the core's vertices are partitioned over
        ranks, every per-root traversal runs on the reduced graph with
        weighted accumulation, checkpoints and the reduce stay in core
        space, and the folded credit is added after expansion.  Pass a
        prepared :class:`~repro.bc.preprocess.FoldResult` to reuse one,
        or ``False`` to traverse the original graph.

    Returns a :class:`ResilientRun`; ``run.values`` equals the serial
    :func:`repro.bc.betweenness_centrality` whenever ``run.exact``.
    """
    if num_ranks < 1:
        raise ClusterConfigurationError("num_ranks must be >= 1")
    if max_retries < 0:
        raise ClusterConfigurationError("max_retries must be >= 0")
    if backoff_base < 0:
        raise ClusterConfigurationError("backoff_base must be >= 0")

    if metrics is None:
        metrics = NULL_REGISTRY
    if clock is None:
        clock = metrics.clock if metrics.enabled else SpanClock()

    faults: ActiveFaults | None = (fault_plan.start(seed=seed)
                                   if fault_plan else None)
    if comm is None:
        comm = FaultyComm(num_ranks, faults=faults, metrics=metrics)
    elif comm.size != num_ranks:
        raise ClusterConfigurationError("communicator size mismatch")

    policy = VerificationPolicy.coerce(verify)
    checker = RootChecker(policy, metrics) if policy.enabled else None

    # A full-run plan: on a folded graph the checkpointed roots are the
    # core's vertices, each standing for its absorbed subtree, so its
    # dependency vector is scaled by that weight before it is
    # checkpointed (Eq. 3 stays a plain sum).
    plan = root_plan(g, None, fold)
    run_g = plan.graph
    if plan.fold is not None:
        metrics.record("resilience.fold",
                       core_vertices=int(run_g.num_vertices),
                       folded_vertices=int(plan.fold.num_folded),
                       rounds=int(plan.fold.rounds))

    # Traversal roots and checkpoint vectors live on the (possibly
    # folded) run graph; expansion back to original ids happens once,
    # after the reduce.
    n = run_g.num_vertices
    half = 2.0 if g.undirected else 1.0
    store = CheckpointStore(num_ranks, n)
    incidents: list = []
    wall0 = clock.wall_seconds()
    sim0 = clock.sim_seconds
    comp0 = {c: clock.component_seconds(c)
             for c in ("compute", "backoff", "degrade")}
    recovery_s = 0.0
    recomputed_roots = 0
    corruption_detected = 0
    roots_requarantined = 0

    def record_incident(inc: RankIncident) -> None:
        incidents.append(inc)
        metrics.inc("resilience.incidents", kind=inc.kind, where=inc.where)
        metrics.record("resilience.incident", rank=inc.rank, kind=inc.kind,
                       where=inc.where, attempt=inc.attempt,
                       roots_lost=inc.roots_lost)

    def detected(rank: int, invariant: str, roots_lost: int) -> None:
        nonlocal corruption_detected
        corruption_detected += 1
        record_incident(RankIncident(rank, SDC, invariant, attempt,
                                     roots_lost))
        metrics.inc("verify.corruption_detected", layer="driver",
                    invariant=invariant)

    def over_budget() -> bool:
        # Same clock, same expression as the final elapsed_seconds
        # report — the two can never drift apart.
        if wall_clock_budget is None:
            return False
        return (clock.elapsed() - wall0 - sim0) >= wall_clock_budget

    # ------------------------------------------------------------------
    # Graph replication (MPI_Bcast).  A rank that dies here never
    # receives the graph: mark it dead and re-enter the collective.
    pending: dict = {r: part for r, part in
                     enumerate(partition_roots(n, num_ranks))}
    while True:
        try:
            comm.bcast(("graph", g.num_vertices, g.num_edges), root=0)
            break
        except RankFailure as f:
            record_incident(RankIncident(f.rank, FAIL_STOP, f.where, 0,
                                         int(pending.get(f.rank,
                                                         np.empty(0)).size)))
            comm.mark_dead(f.rank)

    # Roots assigned to ranks that died before compute are orphans from
    # the start.
    orphans_list = [pending.pop(r) for r in list(pending)
                    if r not in comm.live]
    if orphans_list:
        early = np.concatenate(orphans_list)
        if comm.live:
            for rank, roots in _redistribute(early, sorted(comm.live)).items():
                pending[rank] = np.concatenate([pending[rank], roots]) \
                    if rank in pending else roots
            orphans_list = []

    # ------------------------------------------------------------------
    # Compute rounds with re-partitioning recovery.
    attempt = 0
    exhausted = False
    while True:
        round_orphans = list(orphans_list)
        orphans_list = []
        round_costs = [0.0]
        for rank in sorted(pending):
            roots = pending[rank]
            if roots.size == 0:
                continue
            if over_budget():
                round_orphans.append(roots)
                continue
            factor = faults.straggler_factor(rank) if faults else 1.0
            if faults and faults.oom_fires(rank):
                # Transient: the rank survives and its unit is retried
                # in the next round (after backoff).
                record_incident(RankIncident(rank, OOM, "compute", attempt,
                                             int(roots.size)))
                round_orphans.append(roots)
                continue
            crash = faults.compute_crash(rank) if faults else None
            if crash is not None:
                # The rank processes part of its unit, then dies; the
                # unit checkpoint was never written, so all of its
                # roots are orphaned.
                done = min(crash.after_roots, int(roots.size))
                record_incident(RankIncident(rank, FAIL_STOP, "compute",
                                             attempt, int(roots.size)))
                comm.mark_dead(rank)
                round_costs.append(per_root_seconds * done * factor)
                round_orphans.append(roots)
                continue
            # Per-rank timeline entry: the span's wall duration is the
            # real recompute time; its simulated cost is recorded as a
            # labelled counter (the round charges only the makespan).
            quarantined: list = []
            with metrics.span("resilience.rank_compute", rank=rank,
                              attempt=attempt):
                # A root the observer rejects never reaches the partial:
                # it is quarantined (re-run next round like a crashed
                # rank's orphan) and the unit resumes after it.
                observer = RootObserver(
                    run_g, policy, metrics, faults=faults, rank=rank,
                    target_weights=plan.target_weights,
                    source_weights=plan.source_weights)
                width = (1 if faults and faults.sdc_pending_for(rank)
                         else group_width(run_g))
                partial = np.zeros(n, dtype=np.float64)
                while observer.position < roots.size:
                    try:
                        plan.accumulate(roots[observer.position:], partial,
                                        observer=observer, width=width)
                    except SilentCorruptionError as err:
                        quarantined.append(err.root)
                        detected(rank, err.violations[0].invariant, 1)
                # Unit-level corruption (the "partial" site) strikes the
                # accumulated vector just before the checkpoint write;
                # a failed checksum makes the whole unit suspect, so
                # nothing from it may reach stable storage.
                good = [int(s) for s in roots if int(s) not in quarantined]
                try:
                    observer.finish(partial)
                except SilentCorruptionError as err:
                    detected(rank, err.violations[0].invariant, len(good))
                    quarantined.extend(good)
                    good = []
            if good:
                partial /= half
                store.commit(rank, np.asarray(good, dtype=np.int64), partial)
            if quarantined:
                roots_requarantined += len(quarantined)
                metrics.inc("resilience.roots_requarantined",
                            len(quarantined))
                round_orphans.append(np.asarray(quarantined,
                                                dtype=np.int64))
            cost = per_root_seconds * roots.size * factor
            round_costs.append(cost)
            metrics.inc("resilience.rank_seconds", cost, rank=rank)
            metrics.inc("resilience.rank_roots", roots.size, rank=rank)
            if attempt > 0:
                recomputed_roots += int(roots.size)
                recovery_s += cost
        # Ranks compute concurrently: the round costs its makespan —
        # charged exactly once, on the shared clock.
        clock.advance(max(round_costs), "compute")

        orphans = (np.concatenate(round_orphans) if round_orphans
                   else np.empty(0, dtype=np.int64))
        metrics.record("resilience.round", attempt=attempt,
                       orphans=int(orphans.size),
                       survivors=len(comm.live),
                       completed_roots=int(store.completed_roots),
                       makespan_seconds=float(max(round_costs)))
        if orphans.size == 0:
            break
        survivors = sorted(comm.live)
        if attempt >= max_retries or not survivors or over_budget():
            exhausted = True
            break
        attempt += 1
        metrics.inc("resilience.retries")
        pause = backoff_delay(attempt, base=backoff_base, seed=seed)
        recovery_s += pause
        clock.advance(pause, "backoff")
        pending = _redistribute(orphans, survivors)

    # ------------------------------------------------------------------
    # Score reduction (MPI_Reduce) over checkpointed partials.  A rank
    # dying here loses nothing — its unit is already in stable storage —
    # so the collective is simply re-entered.  With verification on, the
    # reduce is also *checksummed*: the reduced vector's sum must match
    # the independently-summed per-rank checksums (computed from stable
    # storage, which in-flight corruption cannot touch).  A mismatch
    # re-enters the collective — redundant reduction over clean inputs
    # repairs a transient in-flight bit-flip.
    reduce_retries = 0
    corrupted_reduce = False
    while True:
        values = store.per_rank_values()
        try:
            total = comm.reduce(values, root=0)
        except RankFailure as f:
            record_incident(RankIncident(f.rank, FAIL_STOP, f.where,
                                         attempt, 0))
            comm.mark_dead(f.rank)
            continue
        if checker is None:
            break
        expected = float(sum(float(v.sum()) for v in values))
        t0 = time.perf_counter()
        ok = checker.reduce_ok(total, expected)
        metrics.inc("verify.overhead_seconds", time.perf_counter() - t0)
        if ok:
            break
        victim = -1
        corruptions = getattr(comm, "corruptions", None)
        if corruptions:
            victim = int(corruptions[-1].get("rank", -1))
        detected(victim, "reduce", 0)
        if reduce_retries >= max_retries:
            # Out of budget: surface the corruption instead of looping —
            # the values carry it and the run is flagged inexact.
            corrupted_reduce = True
            break
        reduce_retries += 1
        metrics.inc("resilience.reduce_retries")

    # ------------------------------------------------------------------
    # Graceful degradation for whatever never completed.
    degraded_roots = 0
    samples_used = 0
    if exhausted and orphans.size:
        if not degrade:
            raise RetryExhaustedError(int(orphans.size), attempt)
        degraded_roots = int(orphans.size)
        k = max(1, min(int(degrade_samples), degraded_roots))
        rng = np.random.default_rng(seed)
        sample = rng.choice(orphans, size=k, replace=False)
        with metrics.span("resilience.degrade", samples=k):
            est = plan.accumulate(sample)
        est /= half
        total = total + est * (degraded_roots / k)
        samples_used = k
        clock.advance(per_root_seconds * k, "degrade")
        metrics.inc("resilience.degraded_roots", degraded_roots)
        metrics.record("resilience.degrade", roots=degraded_roots,
                       samples=k, scale=degraded_roots / k)

    # Back to original ids: checkpoints, reduce and the degraded
    # estimate were all core-space; the pendants' closed-form credit
    # (already in ordered-pair units) gets the same halving the
    # traversed partials received at commit time.
    total = plan.finish(total, half)

    metrics.inc("resilience.runs")
    metrics.inc("resilience.recomputed_roots", recomputed_roots)
    compute_s = clock.component_seconds("compute") - comp0["compute"]
    backoff_s = clock.component_seconds("backoff") - comp0["backoff"]
    degrade_s = clock.component_seconds("degrade") - comp0["degrade"]
    sim_s = clock.sim_seconds - sim0
    wall_s = clock.wall_seconds() - wall0
    return ResilientRun(
        values=total,
        exact=degraded_roots == 0 and not corrupted_reduce,
        num_ranks=num_ranks,
        survivors=len(comm.live),
        total_roots=n,
        completed_roots=store.completed_roots,
        recomputed_roots=recomputed_roots,
        degraded_roots=degraded_roots,
        retries=attempt,
        incidents=incidents,
        backoff_seconds=backoff_s,
        compute_seconds=compute_s,
        recovery_seconds=recovery_s,
        comm_seconds=comm.elapsed_comm_seconds,
        elapsed_seconds=wall_s + sim_s,
        degrade_seconds=degrade_s,
        wall_seconds=wall_s,
        sim_seconds=sim_s,
        degrade_samples_used=samples_used,
        verification=policy.mode,
        corruption_detected=corruption_detected,
        roots_requarantined=roots_requarantined,
        reduce_retries=reduce_retries,
        corrupted_reduce=corrupted_reduce,
    )
