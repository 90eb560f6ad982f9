"""Deterministic load generator for the BC service.

Simulates a Poisson arrival process against the service's admission
policy and a small device pool, entirely in *simulated* time — the same
trick the gpusim makes with kernels — so every scenario is a pure
function of its seed and its rows are byte-stable bench-grid citizens.

Two committed scenarios:

* ``steady`` — arrivals comfortably under capacity: nothing shed,
  nothing degraded; the row pins the service's base overhead.
* ``overload`` — arrivals past the queue bound: the row pins how the
  admission policy behaves at saturation (shed rate, degraded share)
  and that p99 latency stays bounded *because* load is shed rather than
  queued without limit.

Each scenario produces one ``repro.bench/v1`` result row keyed
``(dataset="service-load", strategy=<scenario>)`` carrying
``makespan_cycles`` (so the default perf-diff metric ratchets it) plus
service-level fields: ``p50_latency``/``p99_latency`` and
``p50_queue_wait``/``p99_queue_wait`` (simulated seconds),
``jobs_per_sec``, ``shed_rate``, ``degraded_rate``, and a
``per_tenant`` breakdown (jobs, p99 latency, p99 queue wait) — the
same decomposition ``repro service top`` reports from the live event
stream, so bench rows and SLO dashboards speak one vocabulary.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass

import numpy as np

from .._util import backoff_delay
from ..errors import ServiceOverloadError
from ..graph.generators import make_dataset
from ..gpusim import GTX_TITAN, Device
from ..observability.registry import NULL_REGISTRY
from .admission import AdmissionController, AdmissionPolicy
from .jobs import JobSpec

__all__ = ["LoadScenario", "RETRY_STORM", "SCENARIOS",
           "run_load_scenario", "service_bench_rows"]


@dataclass(frozen=True)
class LoadScenario:
    """One arrival pattern against one admission policy."""

    name: str
    jobs: int = 24
    #: Mean arrivals per simulated second.
    arrival_rate: float = 2.0
    graph: str = "smallworld"
    scale_factor: int = 256
    roots: int = 8
    strategies: tuple = ("sampling", "edge-parallel")
    tenants: int = 3
    devices: int = 2
    max_queue: int = 16
    degrade_threshold: int | None = None
    tenant_quota: int = 16
    #: Root fraction a degraded job runs (mirrors the scheduler's
    #: overload sampling).
    sample_fraction: float = 0.25
    #: Shed arrivals re-offer themselves up to this many times, after
    #: the client SDK's deterministic jittered backoff floored at the
    #: server's ``retry_after`` hint.  0 (the committed default) keeps
    #: the scenario's rows byte-identical to the pre-retry model.
    client_retries: int = 0
    client_backoff_base: float = 0.05
    client_backoff_cap: float = 2.0


#: The committed bench scenarios (kept cheap: one 256-scale graph).
SCENARIOS = (
    LoadScenario("steady", jobs=24, arrival_rate=0.5,
                 max_queue=16, tenant_quota=16),
    LoadScenario("overload", jobs=40, arrival_rate=50_000.0,
                 max_queue=8, degrade_threshold=3, tenant_quota=8),
)

#: The chaos scenario the soak CI job runs: overload arrivals whose
#: clients retry on shed, honouring ``retry_after`` hints.  Deliberately
#: NOT in :data:`SCENARIOS` — its rows never enter the committed bench
#: baseline, so the retry model can evolve without perf-gate churn.
RETRY_STORM = LoadScenario("retry-storm", jobs=40, arrival_rate=50_000.0,
                           max_queue=8, degrade_threshold=3,
                           tenant_quota=8, client_retries=4)


def _service_times(scenario: LoadScenario, metrics) -> dict:
    """Simulated seconds per (strategy, degraded) job class.

    Measured by actually running the device simulator once per class on
    the scenario graph — the load model and the bench grid share one
    cost model, so a kernel change moves these rows too.
    """
    g = make_dataset(scenario.graph, scale_factor=scenario.scale_factor,
                     seed=0)
    dev = Device(GTX_TITAN)
    rng = np.random.default_rng(0)
    roots = np.sort(rng.choice(g.num_vertices,
                               size=min(scenario.roots, g.num_vertices),
                               replace=False))
    k = max(1, int(roots.size * scenario.sample_fraction))
    times = {}
    for strategy in scenario.strategies:
        exact = dev.run_bc(g, strategy=strategy, roots=roots,
                           metrics=metrics)
        sampled = dev.run_bc(g, strategy=strategy, roots=roots[:k],
                             metrics=metrics)
        times[(strategy, False)] = float(exact.seconds)
        times[(strategy, True)] = float(sampled.seconds)
    times["graph"] = g
    return times


def run_load_scenario(scenario: LoadScenario, *, seed: int = 0,
                      metrics=None) -> dict:
    """Simulate one scenario; returns its bench result row."""
    metrics = metrics if metrics is not None else NULL_REGISTRY
    policy = AdmissionPolicy(max_queue=scenario.max_queue,
                             degrade_threshold=scenario.degrade_threshold,
                             tenant_quota=scenario.tenant_quota)
    admission = AdmissionController(policy, metrics=metrics)
    times = _service_times(scenario, metrics)
    g = times["graph"]

    rng = np.random.default_rng(
        [int(seed), zlib.crc32(scenario.name.encode("utf-8"))])
    arrivals = np.cumsum(rng.exponential(1.0 / scenario.arrival_rate,
                                         size=scenario.jobs))

    devices = [0.0] * scenario.devices
    # (arrival, start, completion, tenant, degraded) per admitted job.
    admitted: list = []
    shed = 0
    degraded = 0
    latencies: list = []

    retries = 0
    gave_up = 0
    # Offer events in simulated-time order; a retrying client re-offers
    # its shed arrival later.  With client_retries=0 this is exactly the
    # original in-order arrival walk (rows stay byte-identical).
    events = [(float(t), i, 0) for i, t in enumerate(arrivals)]
    heapq.heapify(events)
    while events:
        t, i, attempt = heapq.heappop(events)
        tenant = f"t{i % scenario.tenants}"
        strategy = scenario.strategies[i % len(scenario.strategies)]
        spec = JobSpec(job_id=f"load{i:04d}", graph=scenario.graph,
                       scale_factor=scenario.scale_factor,
                       strategy=strategy, roots=scenario.roots,
                       seed=seed, tenant=tenant)
        # Queue state as of this arrival, from the simulated timeline:
        # admitted-but-not-started jobs are the queue, started-but-not-
        # finished ones are the tenant's running share.
        depth = sum(1 for a in admitted if a["start"] > t)
        live = sum(1 for a in admitted
                   if a["tenant"] == tenant and a["completion"] > t)
        try:
            mode = admission.decide(spec, depth, live)
        except ServiceOverloadError as exc:
            if attempt < scenario.client_retries:
                retries += 1
                delay = backoff_delay(attempt + 1,
                                      base=scenario.client_backoff_base,
                                      cap=scenario.client_backoff_cap,
                                      seed=seed, token=spec.job_id)
                hint = getattr(exc, "retry_after", None)
                if hint is not None:
                    delay = max(delay, float(hint))
                heapq.heappush(events, (t + delay, i, attempt + 1))
                continue
            shed += 1
            if scenario.client_retries:
                gave_up += 1
            continue
        is_degraded = mode == "degrade"
        if is_degraded:
            degraded += 1
        service = times[(strategy, is_degraded)]
        d = min(range(len(devices)), key=lambda j: devices[j])
        start = max(float(t), devices[d])
        completion = start + service
        devices[d] = completion
        admitted.append({"arrival": float(t), "start": start,
                         "completion": completion, "tenant": tenant})
        latencies.append(completion - float(t))

    lat = np.asarray(latencies, dtype=np.float64)
    makespan = (max(a["completion"] for a in admitted) - float(arrivals[0])
                if admitted else 0.0)
    queue_waits = np.asarray([a["start"] - a["arrival"] for a in admitted],
                             dtype=np.float64)
    per_tenant = {}
    for tenant in sorted({a["tenant"] for a in admitted}):
        t_lat = np.asarray([a["completion"] - a["arrival"]
                            for a in admitted if a["tenant"] == tenant])
        t_qw = np.asarray([a["start"] - a["arrival"]
                           for a in admitted if a["tenant"] == tenant])
        per_tenant[tenant] = {
            "jobs": int(t_lat.size),
            "p99_latency": float(np.percentile(t_lat, 99)),
            "p99_queue_wait": float(np.percentile(t_qw, 99)),
        }
    clock_hz = GTX_TITAN.clock_hz
    row = {
        "dataset": "service-load",
        "strategy": scenario.name,
        "num_vertices": int(g.num_vertices),
        "num_edges": int(g.num_edges),
        "num_roots": int(scenario.roots),
        "jobs_offered": int(scenario.jobs),
        "jobs_completed": int(len(admitted)),
        "makespan_cycles": float(makespan * clock_hz),
        "sim_seconds": float(makespan),
        "p50_latency": float(np.percentile(lat, 50)) if lat.size else None,
        "p99_latency": float(np.percentile(lat, 99)) if lat.size else None,
        "p50_queue_wait": (float(np.percentile(queue_waits, 50))
                           if queue_waits.size else None),
        "p99_queue_wait": (float(np.percentile(queue_waits, 99))
                           if queue_waits.size else None),
        "jobs_per_sec": (float(len(admitted) / makespan)
                         if makespan > 0 else None),
        "shed_rate": float(shed / scenario.jobs),
        "degraded_rate": float(degraded / scenario.jobs),
        "per_tenant": per_tenant,
    }
    if scenario.client_retries:
        # Retry fields appear only for retry-modelled scenarios so the
        # committed SCENARIOS rows stay byte-identical.
        row["client_retries"] = int(scenario.client_retries)
        row["retries"] = int(retries)
        row["gave_up"] = int(gave_up)
    metrics.record("service.loadgen", scenario=scenario.name,
                   completed=len(admitted), shed=shed, degraded=degraded)
    return row


def service_bench_rows(seed: int = 0, scenarios=SCENARIOS,
                       metrics=None) -> list:
    """The load-generator rows the bench grid appends."""
    return [run_load_scenario(s, seed=seed, metrics=metrics)
            for s in scenarios]
