"""The resilient driver sweeps through the executor's one root loop.

:func:`resilient_distributed_bc` runs each rank's unit and the degraded
estimate through :func:`repro.bc.accumulation.root_dependencies`, with
the shared :class:`repro.verify.RootObserver` injecting planned
bit-flips and running the ABFT checks.  These tests pin that against
``_per_root_driver``, an in-test copy of the driver as it was when it
swept, injected and checked one root at a time by hand: value bytes,
every deterministic :class:`ResilientRun` field and the metric
counters must match over a fault-plan x fold x verify grid.
"""

import time
import warnings

import numpy as np
import pytest

from repro.bc import accumulation
from repro.bc.accumulation import dependency_accumulation
from repro.bc.frontier import forward_sweep, group_width
from repro.bc.preprocess import FoldResult, fold_degree_one
from repro.cluster.distributed import partition_roots
from repro.errors import RankFailure, RetryExhaustedError, SilentCorruptionError
from repro.graph.build import from_edges
from repro.graph.generators import kronecker_graph, road_network, watts_strogatz
from repro.observability import MetricsRegistry
from repro.observability.clock import SpanClock
from repro.resilience import (
    SDC,
    CheckpointStore,
    FaultPlan,
    FaultyComm,
    FaultyDevice,
    RankIncident,
    ResilientRun,
    resilient_distributed_bc,
)
from repro.resilience.faults import FAIL_STOP, OOM, apply_sdc
from repro.verify import RootChecker, VerificationPolicy

pytestmark = [pytest.mark.faults, pytest.mark.sdc]

RANKS = 3


def _redistribute(orphans, survivors):
    parts = partition_roots(orphans.size, len(survivors))
    return {rank: orphans[part] for rank, part in zip(survivors, parts)}


def _per_root_driver(g, num_ranks, *, fault_plan=None, max_retries=3,
                     backoff_base=0.05, per_root_seconds=0.0,
                     degrade_samples=8, degrade=True, seed=0, metrics,
                     verify="off", fold=True):
    """The driver's compute path before it went through the shared root
    loop: one ``forward_sweep`` + ``dependency_accumulation`` per root,
    with its own bit-flip injection and invariant checks."""
    clock = metrics.clock
    faults = fault_plan.start(seed=seed) if fault_plan else None
    comm = FaultyComm(num_ranks, faults=faults, metrics=metrics)
    policy = VerificationPolicy.coerce(verify)
    checker = RootChecker(policy, metrics) if policy.enabled else None
    fold_result = None
    if isinstance(fold, FoldResult):
        fold_result = fold
    elif fold:
        fold_result = fold_degree_one(g)
    folded = fold_result is not None and not fold_result.is_identity
    if folded:
        run_g = fold_result.core
        target_weights = fold_result.core_weights
        metrics.record("resilience.fold",
                       core_vertices=int(run_g.num_vertices),
                       folded_vertices=int(fold_result.num_folded),
                       rounds=int(fold_result.rounds))
    else:
        run_g = g
        target_weights = None
    n = run_g.num_vertices
    half = 2.0 if g.undirected else 1.0
    store = CheckpointStore(num_ranks, n)
    incidents = []
    wall0 = clock.wall_seconds()
    sim0 = clock.sim_seconds
    comp0 = {c: clock.component_seconds(c)
             for c in ("compute", "backoff", "degrade")}
    recovery_s = 0.0
    recomputed_roots = 0
    corruption_detected = 0
    roots_requarantined = 0

    def record_incident(inc):
        incidents.append(inc)
        metrics.inc("resilience.incidents", kind=inc.kind, where=inc.where)
        metrics.record("resilience.incident", rank=inc.rank, kind=inc.kind,
                       where=inc.where, attempt=inc.attempt,
                       roots_lost=inc.roots_lost)

    def checked(fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        metrics.inc("verify.overhead_seconds", time.perf_counter() - t0)
        return out

    def apply_site(events, site, arr):
        for ev in events:
            if ev.site == site:
                apply_sdc(ev, arr, seed=faults.seed)
                metrics.inc("verify.faults_injected", site=site)

    pending = {r: part for r, part in enumerate(partition_roots(n, num_ranks))}
    while True:
        try:
            comm.bcast(("graph", g.num_vertices, g.num_edges), root=0)
            break
        except RankFailure as f:
            record_incident(RankIncident(f.rank, FAIL_STOP, f.where, 0,
                                         int(pending.get(f.rank,
                                                         np.empty(0)).size)))
            comm.mark_dead(f.rank)
    orphans_list = [pending.pop(r) for r in list(pending)
                    if r not in comm.live]
    if orphans_list:
        early = np.concatenate(orphans_list)
        if comm.live:
            for rank, roots in _redistribute(early, sorted(comm.live)).items():
                pending[rank] = np.concatenate([pending[rank], roots]) \
                    if rank in pending else roots
            orphans_list = []

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
            factor = faults.straggler_factor(rank) if faults else 1.0
            if faults and faults.oom_fires(rank):
                record_incident(RankIncident(rank, OOM, "compute", attempt,
                                             int(roots.size)))
                round_orphans.append(roots)
                continue
            crash = faults.compute_crash(rank) if faults else None
            if crash is not None:
                done = min(crash.after_roots, int(roots.size))
                record_incident(RankIncident(rank, FAIL_STOP, "compute",
                                             attempt, int(roots.size)))
                comm.mark_dead(rank)
                round_costs.append(per_root_seconds * done * factor)
                round_orphans.append(roots)
                continue
            quarantined = []
            with metrics.span("resilience.rank_compute", rank=rank,
                              attempt=attempt):
                partial = np.zeros(n, dtype=np.float64)
                expected_sum = 0.0
                for pos, s in enumerate(roots):
                    s = int(s)
                    fwd = forward_sweep(run_g, s)
                    events = faults.sdc_for_root(rank, pos) if faults else []
                    apply_site(events, "sigma", fwd.sigma)
                    apply_site(events, "dist", fwd.distances)
                    delta = dependency_accumulation(
                        run_g, fwd, target_weights=target_weights)
                    sw = 1.0 if not folded else float(target_weights[s])
                    if sw != 1.0:
                        delta *= sw
                    apply_site(events, "delta", delta)
                    if checker is not None and policy.checks_root(s):
                        violations = checked(checker.check_root, run_g,
                                             fwd, delta,
                                             target_weights=target_weights,
                                             source_weight=sw)
                        if violations:
                            corruption_detected += 1
                            quarantined.append(s)
                            record_incident(RankIncident(
                                rank, SDC, violations[0].invariant,
                                attempt, 1))
                            metrics.inc("verify.corruption_detected",
                                        layer="driver",
                                        invariant=violations[0].invariant)
                            continue
                    partial += delta
                    expected_sum += float(delta.sum())
                apply_site(faults.sdc_for_partial(rank) if faults else [],
                           "partial", partial)
                if checker is not None:
                    pv = checked(checker.check_partial, partial,
                                 expected_sum, rank)
                    if pv:
                        corruption_detected += 1
                        good = [int(s) for s in roots
                                if int(s) not in quarantined]
                        record_incident(RankIncident(
                            rank, SDC, pv[0].invariant, attempt,
                            len(good)))
                        metrics.inc("verify.corruption_detected",
                                    layer="driver",
                                    invariant=pv[0].invariant)
                        quarantined.extend(good)
                        partial = None
            if partial is not None:
                good = np.asarray(
                    [int(s) for s in roots if int(s) not in quarantined],
                    dtype=np.int64)
                if good.size:
                    partial /= half
                    store.commit(rank, good, partial)
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
        if attempt >= max_retries or not survivors:
            exhausted = True
            break
        attempt += 1
        metrics.inc("resilience.retries")
        pause = backoff_base * (2 ** (attempt - 1))
        recovery_s += pause
        clock.advance(pause, "backoff")
        pending = _redistribute(orphans, survivors)

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
        if checked(checker.reduce_ok, total, expected):
            break
        corruption_detected += 1
        victim = -1
        corruptions = getattr(comm, "corruptions", None)
        if corruptions:
            victim = int(corruptions[-1].get("rank", -1))
        record_incident(RankIncident(victim, SDC, "reduce", attempt, 0))
        metrics.inc("verify.corruption_detected", layer="driver",
                    invariant="reduce")
        if reduce_retries >= max_retries:
            corrupted_reduce = True
            break
        reduce_retries += 1
        metrics.inc("resilience.reduce_retries")

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
            est = np.zeros(n, dtype=np.float64)
            for s in sample:
                fwd = forward_sweep(run_g, int(s))
                delta = dependency_accumulation(
                    run_g, fwd, target_weights=target_weights)
                if folded:
                    delta *= float(target_weights[int(s)])
                est += delta
        est /= half
        total = total + est * (degraded_roots / k)
        samples_used = k
        clock.advance(per_root_seconds * k, "degrade")
        metrics.inc("resilience.degraded_roots", degraded_roots)
        metrics.record("resilience.degrade", roots=degraded_roots,
                       samples=k, scale=degraded_roots / k)
    if folded:
        total = fold_result.expand(total) + fold_result.credit / half

    metrics.inc("resilience.runs")
    metrics.inc("resilience.recomputed_roots", recomputed_roots)
    compute_s = clock.component_seconds("compute") - comp0["compute"]
    backoff_s = clock.component_seconds("backoff") - comp0["backoff"]
    degrade_s = clock.component_seconds("degrade") - comp0["degrade"]
    sim_s = clock.sim_seconds - sim0
    wall_s = clock.wall_seconds() - wall0
    return ResilientRun(
        values=total, exact=degraded_roots == 0 and not corrupted_reduce,
        num_ranks=num_ranks, survivors=len(comm.live), total_roots=n,
        completed_roots=store.completed_roots,
        recomputed_roots=recomputed_roots, degraded_roots=degraded_roots,
        retries=attempt, incidents=incidents, backoff_seconds=backoff_s,
        compute_seconds=compute_s, recovery_seconds=recovery_s,
        comm_seconds=comm.elapsed_comm_seconds,
        elapsed_seconds=wall_s + sim_s, degrade_seconds=degrade_s,
        wall_seconds=wall_s, sim_seconds=sim_s,
        degrade_samples_used=samples_used, verification=policy.mode,
        corruption_detected=corruption_detected,
        roots_requarantined=roots_requarantined,
        reduce_retries=reduce_retries, corrupted_reduce=corrupted_reduce)


# -- the pinning grid ----------------------------------------------------

def _directed():
    rng = np.random.default_rng(5)
    edges = rng.integers(0, 40, size=(160, 2))
    return from_edges(edges[edges[:, 0] != edges[:, 1]], num_vertices=40,
                      undirected=False, name="directed40")


GRAPHS = {
    "smallworld": lambda: watts_strogatz(32, k=4, p=0.1, seed=3),
    "kron": lambda: kronecker_graph(6, seed=1),
    "road": lambda: road_network(60, seed=2),
    "directed": _directed,
}

PLANS = {
    "fault-free": (None, {}),
    "fail-compute": (FaultPlan.fail_stop(1, "compute", after_roots=2), {}),
    "fail-reduce": (FaultPlan.fail_stop(2, "reduce"), {}),
    "oom": (FaultPlan.transient_oom(0, times=2), {}),
    "straggler": (FaultPlan.straggler(1, 3.0), {}),
    **{f"sdc-{site}-{pos}": (FaultPlan.sdc(1, site=site, root_index=pos), {})
       for site in ("sigma", "dist", "delta") for pos in range(3)},
    "sdc-partial": (FaultPlan.sdc(0, site="partial"), {}),
    "sdc-reduce": (FaultPlan.sdc(2, site="reduce"), {}),
    "sdc-bit62": (FaultPlan.sdc(1, site="sigma", root_index=1, bit=62), {}),
    "random-a": (FaultPlan.random(RANKS, seed=4, num_faults=3), {}),
    "random-b": (FaultPlan.random(RANKS, seed=11, num_faults=3), {}),
    "degrade": (FaultPlan.fail_stop(0, "compute"), {"max_retries": 0}),
}

#: Wall-clock fields; everything else in a ResilientRun is simulated.
WALL = {"wall_seconds", "elapsed_seconds"}


def _counters(metrics):
    return [(c["name"], c["labels"], c["value"])
            for c in metrics.export()["counters"]
            if c["name"] != "verify.overhead_seconds"]


def _both(g, plan, verify, fold, **kwargs):
    out = []
    for fn in (_per_root_driver, resilient_distributed_bc):
        metrics = MetricsRegistry(clock=SpanClock())
        with warnings.catch_warnings():
            # A flip can zero sigma outright (bit 62 of 2.0), making the
            # corrupted accumulation divide by zero before detection.
            warnings.simplefilter("ignore", RuntimeWarning)
            run = fn(g, RANKS, fault_plan=plan, verify=verify, fold=fold,
                     seed=0, per_root_seconds=0.01, metrics=metrics,
                     **kwargs)
        out.append((run, metrics))
    return out


@pytest.mark.parametrize("verify", ["off", "sampled", "paranoid"])
@pytest.mark.parametrize("fold", [True, False])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_driver_values_unchanged(graph, fold, verify):
    g = GRAPHS[graph]()
    for name, (plan, kwargs) in PLANS.items():
        (old, old_m), (new, new_m) = _both(g, plan, verify, fold, **kwargs)
        assert new.values.tobytes() == old.values.tobytes(), name
        for field in ResilientRun.__dataclass_fields__:
            if field not in WALL and field != "values":
                assert getattr(new, field) == getattr(old, field), (name,
                                                                    field)
        assert _counters(new_m) == _counters(old_m), name
        assert new_m.events == old_m.events, name


# -- one count per detection ---------------------------------------------

def _detections(metrics):
    return sorted((tuple(sorted(c["labels"].items())), c["value"])
                  for c in metrics.export()["counters"]
                  if c["name"] == "verify.corruption_detected")


@pytest.mark.parametrize("plan,invariant", [
    (FaultPlan.sdc(1, site="sigma"), "sigma"),
    (FaultPlan.sdc(0, site="partial"), "partial"),
])
def test_one_count_per_detection(plan, invariant):
    g = GRAPHS["smallworld"]()
    metrics = MetricsRegistry()
    run = resilient_distributed_bc(g, RANKS, fault_plan=plan,
                                   verify="paranoid", metrics=metrics)
    assert run.exact and run.corruption_detected == 1
    assert _detections(metrics) == [
        ((("invariant", invariant), ("layer", "driver")), 1.0)]

    metrics = MetricsRegistry()
    device = FaultyDevice(rank=plan.events[0].rank, faults=plan.start(seed=0))
    with pytest.raises(SilentCorruptionError) as err:
        device.run_bc(g, roots=np.arange(8), check_memory=False,
                      verify="paranoid", metrics=metrics)
    assert err.value.violations[0].invariant == invariant
    if invariant == "partial":
        assert err.value.violations[0].root == device.rank
    assert _detections(metrics) == [((("layer", "device"),), 1.0)]


def test_partial_violations_name_the_rank():
    plan = FaultPlan.sdc(2, site="partial")
    metrics = MetricsRegistry()
    run = resilient_distributed_bc(GRAPHS["smallworld"](), RANKS,
                                   fault_plan=plan, verify="paranoid",
                                   metrics=metrics)
    partial = [ev for ev in metrics.events
               if ev["event"] == "resilience.incident" and ev["kind"] == SDC]
    assert [(ev["rank"], ev["where"]) for ev in partial] == [(2, "partial")]
    assert run.exact


# -- group width ---------------------------------------------------------

def _widths(monkeypatch, plan):
    widths = []
    original = accumulation.root_dependencies

    def spy(*args, **kwargs):
        widths.append(kwargs.get("width"))
        return original(*args, **kwargs)

    # The driver reaches the loop through RootPlan.accumulate.
    monkeypatch.setattr(accumulation, "root_dependencies", spy)
    run = resilient_distributed_bc(GRAPHS["smallworld"](), RANKS,
                                   fault_plan=plan, verify="paranoid")
    assert run.exact
    return widths


def test_fault_free_units_run_in_wide_groups(monkeypatch):
    wide = group_width(GRAPHS["smallworld"]())
    assert wide > 1
    assert _widths(monkeypatch, None) == [wide] * RANKS


def test_a_rank_with_planned_bit_flips_runs_one_root_at_a_time(monkeypatch):
    wide = group_width(GRAPHS["smallworld"]())
    widths = _widths(monkeypatch, FaultPlan.sdc(1, site="delta",
                                                root_index=2))
    # Rank 1 runs one root at a time and resumes after the root it
    # quarantined; ranks 0 and 2, and the quarantined root's recompute
    # on rank 0 (the flip consumed), run in wide groups.
    assert widths == [wide, 1, 1, wide, wide]
