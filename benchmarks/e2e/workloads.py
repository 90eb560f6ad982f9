"""The benchmark's four workloads and the checks on their outputs.

:func:`run_workload` runs one workload in the calling process and
returns an :class:`Outcome`: how many checks were made and which
failed, the metric values by name, and diagnostics for the report.

Inputs: the Table II datasets are fixed instances (generator seed
:data:`GRAPH_SEED`) and each grid dataset runs a fixed root sample, so
the grids' simulated MTEPS are exact constants of the code.  ``seed``
decides the service traffic: every job's seed (hence its root sample)
and the repeat workload's request sequence.

A grid *job* is one pass over every (dataset, strategy) run; a service
job is one ``submit`` → ``result`` round trip of a closed-loop client.
The declared latency is the 10th percentile, set-up is repeated at even
intervals through the timed loop, and both are scaled to a reference
host speed (:func:`_measure`): on a shared host whose CPU speed and
fsync latency change state for seconds to minutes at a time, the
median, the mean and the tail move with the time spent in the slow
states, while a low percentile of many samples stays in the fast one
(README.md has the measurements).  The raw values, the median, p90,
p99 and jobs/s are reported alongside.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

import layers
from repro.bc.brandes import brandes_reference
from repro.bench.grid import STRATEGY_NAMES
from repro.client import BCClient, InProcessTransport
from repro.errors import ServiceError
from repro.gpusim import GTX_TITAN, Device
from repro.graph import generators
from repro.harness.runner import ExperimentConfig, pick_roots
from repro.observability import MetricsRegistry
from repro.service import BCService, JobSpec, sample_roots
from repro.telemetry.chrome import write_chrome_trace

WORKLOADS = ("grid-scalefree", "grid-deep", "service-fresh", "service-repeat")

#: Generator seed of every dataset.
GRAPH_SEED = 0

#: Decisions the adaptive strategies must take per dataset (ROADMAP
#: item 1): whether hybrid runs edge-parallel levels, and whether the
#: depth classification of sampling and batched finds the graph
#: shallow (edge-parallel / frontier-matrix) or deep (work-efficient).
EXPECT = {
    "kron_g500-logn20": {"hybrid_switches": True, "shallow": True},
    "caidaRouterLevel": {"hybrid_switches": True, "shallow": True},
    "luxembourg.osm": {"hybrid_switches": False, "shallow": False},
    "delaunay_n20": {"hybrid_switches": True, "shallow": False},
}


@dataclass(frozen=True)
class Size:
    """How much work one run does (tests pass a smaller one)."""

    scalefree: tuple = (("kron_g500-logn20", 64), ("caidaRouterLevel", 64))
    deep: tuple = (("luxembourg.osm", 64), ("delaunay_n20", 64))
    roots: int = 16
    n_samps: int = 8
    min_passes: int = 3
    setup_repeats: int = 5
    service_graph: tuple = ("caidaRouterLevel", 256)
    service_roots: int = 8
    warmup_jobs: int = 20
    min_jobs: int = 1000
    preload_jobs: int = 200
    min_requests: int = 1000
    traced_jobs: int = 200
    traced_requests: int = 2000
    check_every: int = 10


FULL = Size()


@dataclass
class Outcome:
    """Checks made and failed, metric values, report diagnostics."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def to_dict(self) -> dict:
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures), "failures": self.failures[:20],
                "metrics": self.metrics, "info": self.info}


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


#: What :func:`_yardstick` takes on the host the bounds were set on
#: (2 vCPUs of an Intel Xeon, in its fast state).  Declared timings are
#: scaled to that speed.
YARDSTICK_S = 0.0059


def _yardstick() -> float:
    """Seconds for one fixed slice of CPU work outside the program —
    NumPy passes, an interpreted dict loop, a JSON round trip: the
    host's current speed."""
    t0 = time.perf_counter()
    a = np.random.default_rng(0).integers(0, 1 << 14, size=1 << 15)
    counts = np.bincount(a)
    np.unique(a)
    np.argsort(a, kind="stable")
    np.add.at(counts, a[:4096], 1)
    acc: dict = {}
    for i in range(4000):
        acc[i & 511] = acc.get(i & 511, 0) + i
    json.loads(json.dumps([float(x) for x in np.cumsum(counts)[a[:800]]]))
    return time.perf_counter() - t0


def _measure(out: Outcome, seconds: float, minimum: int, repeats: int,
             setup, unit):
    """The timed phase of an untraced run.

    ``state, setup_seconds = setup(previous_state)`` runs ``repeats``
    times at even intervals of the ``seconds`` budget;
    ``unit(state, latencies)`` runs until ``seconds`` have passed and
    ``minimum`` units were timed.  Returns the last state.

    The host's speed changes state for 0.2 s to minutes at a time, so
    the declared timings are scaled to :data:`YARDSTICK_S`: each set-up
    by the faster :func:`_yardstick` run right before or after it, the
    job latency p10 by the p10 of yardstick runs taken through the
    phase (at most every 0.25 s, between units).  Raw values go to
    ``info``.
    """
    setup_times, setup_scaled, latencies, speed = [], [], [], []
    start = time.perf_counter()
    last_probe = -1.0
    state = None
    i = 0
    while i < minimum or time.perf_counter() - start < seconds:
        now = time.perf_counter() - start
        if (len(setup_times) < repeats
                and now >= len(setup_times) * seconds / repeats):
            before = _yardstick()
            state, elapsed = setup(state)
            after = _yardstick()
            setup_times.append(elapsed)
            setup_scaled.append(elapsed * YARDSTICK_S / min(before, after))
            speed += [before, after]
            last_probe = now
            # A restarted service is a new process in production: free
            # the replaced one's cyclic garbage now, not in a timed job.
            gc.collect()
        elif now - last_probe >= 0.25:
            speed.append(_yardstick())
            last_probe = now
        unit(state, latencies)
        i += 1
    lat = np.asarray(latencies) * 1e3
    pct = {q: float(np.percentile(lat, q)) for q in (10, 50, 90, 99)}
    host = float(np.percentile(speed, 10))
    out.metrics["setup_s"] = statistics.median(setup_scaled)
    out.metrics["job_p10_ms"] = pct[10] * YARDSTICK_S / host
    out.metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    out.info.update(samples=int(lat.size), setups=len(setup_times),
                    raw_setup_s=statistics.median(setup_times),
                    latency_ms={f"p{q}": v for q, v in pct.items()},
                    jobs_per_s=1e3 * lat.size / float(lat.sum()),
                    yardstick_ms=host * 1e3)
    return state


def _traced(out: Outcome, name: str, seed: int, out_dir: str,
            baseline: list, setup, unit, n: int, label: str):
    """The traced phase: ``setup`` (as in :func:`_measure`) and ``n``
    calls of ``unit(state, latencies)`` under a :class:`layers.Tracer`,
    one request each.  Records the per-layer metrics, the overhead
    against the untraced ``baseline`` latencies of the same unit, and
    the spans as a Chrome trace.  Returns the state."""
    tracer = layers.Tracer()
    traced = []
    start = time.perf_counter()
    with tracer.installed():
        with tracer.request("setup"):
            state, _ = setup(None)
            gc.collect()
        for i in range(n):
            with tracer.request(f"{label}-{i}"):
                unit(state, traced)
    out.info["traced_wall_s"] = time.perf_counter() - start
    out.metrics.update(tracer.metrics())
    out.metrics["trace.overhead"] = (statistics.fmean(traced)
                                     / statistics.fmean(baseline) - 1.0)
    path = os.path.join(out_dir, f"trace-{name}-seed{seed}.json")
    out.info["trace_file"] = path
    write_chrome_trace(path, tracer.chrome_trace(f"{name} seed {seed}"))
    return state


# -- grids ---------------------------------------------------------------
def _coverage(out: Outcome, warm: dict) -> None:
    """Assert the adaptive strategies act where they should; record
    forward levels per strategy for every run."""
    counts = {}
    for (name, strategy), run in warm.items():
        levels = Counter(lv.strategy for rt in run.trace.roots
                         for lv in rt.levels if lv.stage == "forward")
        row = dict(sorted(levels.items()))
        key = f"{name}/{strategy}"
        expect = EXPECT[name]
        if strategy == "hybrid":
            if expect["hybrid_switches"]:
                out.check(levels["edge-parallel"] > 0,
                          f"{key}: no edge-parallel level")
            else:
                out.check(set(levels) == {"work-efficient"},
                          f"{key}: left work-efficient")
        elif strategy in ("sampling", "batched"):
            chose = run.sampling_chose_edge_parallel
            steady = run.num_roots - run.fixed_roots
            row.update(chose=bool(chose), steady_roots=steady)
            method = "edge-parallel" if strategy == "sampling" else "batched"
            if expect["shallow"]:
                out.check(chose is True and steady > 0 and levels[method] > 0,
                          f"{key}: did not run {method} in its steady phase")
            else:
                out.check(chose is False, f"{key}: chose {method}")
        counts[key] = row
    out.info["coverage"] = counts


def _grid(datasets, verify: str, name: str, seed: int, seconds: float,
          trace: bool, size: Size, out_dir: str) -> Outcome:
    out = Outcome()

    def setup(_=None):
        t0 = time.perf_counter()
        graphs = [(ds, generators.make_dataset(ds, scale_factor=sf,
                                               seed=GRAPH_SEED), sf)
                  for ds, sf in datasets]
        return graphs, time.perf_counter() - t0

    graphs, _ = setup()
    roots = {ds: pick_roots(g, size.roots, seed=GRAPH_SEED)
             for ds, g, _ in graphs}
    params = {}
    for ds, _, sf in graphs:
        cfg = ExperimentConfig(scale_factor=sf)
        params[ds] = {
            "hybrid": {"alpha": cfg.alpha, "beta": cfg.beta},
            "sampling": {"n_samps": size.n_samps,
                         "min_frontier": cfg.min_frontier},
            "batched": {"n_samps": size.n_samps},
        }
    device = Device(GTX_TITAN)

    def grid_pass(graphs: list) -> dict:
        return {(ds, s): device.run_bc(g, strategy=s, roots=roots[ds],
                                       metrics=MetricsRegistry(),
                                       verify=verify,
                                       **params[ds].get(s, {}))
                for ds, g, _ in graphs for s in STRATEGY_NAMES}

    t0 = time.perf_counter()
    warm = grid_pass(graphs)
    out.info["warmup_s"] = time.perf_counter() - t0
    for ds, g, _ in graphs:
        want = brandes_reference(g, sources=roots[ds])
        tolerance = 1e-9 * max(1.0, float(np.abs(want).max()))
        for s in STRATEGY_NAMES:
            err = float(np.abs(warm[ds, s].bc - want).max())
            out.check(err <= tolerance,
                      f"{ds}/{s}: bc differs from Brandes by {err:.3g}")
    _coverage(out, warm)
    for s in STRATEGY_NAMES:
        out.metrics[f"sim_mteps.{s}"] = _geomean(
            warm[ds, s].mteps() for ds, _, _ in graphs)
    out.info["sim_mteps"] = {f"{ds}/{s}": run.mteps()
                             for (ds, s), run in warm.items()}

    def timed_pass(current: list, latencies: list) -> None:
        t0 = time.perf_counter()
        runs = grid_pass(current)
        latencies.append(time.perf_counter() - t0)
        for (ds, s), run in runs.items():
            out.check(np.array_equal(run.bc, warm[ds, s].bc),
                      f"{ds}/{s}: bc differs from its warm-up run")

    if trace:
        baseline = []
        timed_pass(graphs, baseline)
        _traced(out, name, seed, out_dir, baseline, setup, timed_pass, 1,
                "pass")
    else:
        _measure(out, seconds, size.min_passes, size.setup_repeats, setup,
                 timed_pass)
    return out


# -- service -------------------------------------------------------------
def _job_spec(seed: int, size: Size):
    """``spec(i)``: the run's i-th distinct job.  Strategies cycle
    through all six, tenants through three, job seeds are unique."""
    ds, sf = size.service_graph
    base = int(np.random.default_rng(seed).integers(1 << 20, 1 << 30))

    def spec(i: int) -> JobSpec:
        return JobSpec(graph=ds, scale_factor=sf, graph_seed=GRAPH_SEED,
                       strategy=STRATEGY_NAMES[i % len(STRATEGY_NAMES)],
                       roots=size.service_roots, seed=base + i,
                       tenant=f"tenant-{i // len(STRATEGY_NAMES) % 3}")
    return spec


class _Client:
    """One closed-loop client: submit, let the daemon run, fetch."""

    def __init__(self, root: str):
        self.service = BCService(root)
        self.client = BCClient(InProcessTransport(self.service))

    def job(self, spec: JobSpec):
        job_id = self.client.submit(spec)
        self.service.run_pending()
        return self.client.result(job_id)

    def close(self) -> None:
        self.service.close()


def _sim_mteps(out: Outcome, g, k: int, sims: dict) -> None:
    """Per strategy, the geometric mean over jobs of the MTEPS the
    job's simulated seconds give (``DeviceRun.mteps`` units)."""
    for s in STRATEGY_NAMES:
        out.metrics[f"sim_mteps.{s}"] = _geomean(
            g.num_edges * k / sec / 1e6 for sec in sims[s])


def _service_fresh(seed: int, seconds: float, trace: bool, size: Size,
                  out_dir: str) -> Outcome:
    out = Outcome()
    spec = _job_spec(seed, size)
    ds, sf = size.service_graph
    g = generators.make_dataset(ds, scale_factor=sf, seed=GRAPH_SEED)
    tmp = tempfile.mkdtemp(prefix="fresh-", dir=out_dir)
    # Timed and warm-up jobs draw from separate index ranges, so the
    # i-th timed job is the same on every run of a seed however the
    # set-ups interleave.
    timed_jobs = iter(range(1 << 29))
    warmup_jobs = iter(range(1 << 29, 1 << 30))
    checked = []
    sims = defaultdict(list)

    def run_job(c: _Client, latencies=None) -> None:
        i = next(warmup_jobs if latencies is None else timed_jobs)
        s = spec(i)
        t0 = time.perf_counter()
        try:
            values, meta = c.job(s)
        except ServiceError as exc:
            out.check(False, f"job seed={s.seed}: {type(exc).__name__}: {exc}")
            return
        if latencies is not None:
            latencies.append(time.perf_counter() - t0)
            if i < size.min_jobs:
                sims[s.strategy].append(meta["sim_seconds"])
        out.check(meta.get("exact") is True, f"job seed={s.seed}: inexact")
        if s.seed % size.check_every == 0:
            checked.append((s, values))

    def setup(previous):
        """A new service in an empty directory and its warm-up jobs
        (the first loads the graph); one job alone varies with its
        strategy and roots more than the set-up does."""
        if previous is not None:
            previous.close()
        t0 = time.perf_counter()
        c = _Client(tempfile.mkdtemp(dir=tmp))
        for _ in range(size.warmup_jobs):
            run_job(c)
        return c, time.perf_counter() - t0

    try:
        if trace:
            c, _ = setup(None)
            baseline = []
            for _ in range(size.traced_jobs):
                run_job(c, baseline)
            c = _traced(out, "service-fresh", seed, out_dir, baseline,
                        lambda _: setup(c), run_job, size.traced_jobs, "job")
        else:
            c = _measure(out, seconds, size.min_jobs, size.setup_repeats,
                         setup, run_job)
            _sim_mteps(out, g, min(size.service_roots, g.num_vertices), sims)
        c.close()
        # Independent recomputation, after timing.
        device = Device(GTX_TITAN)
        for s, values in checked:
            ref = device.run_bc(g, strategy=s.strategy,
                                roots=sample_roots(g, s)).bc
            out.check(np.allclose(values, ref, rtol=1e-12, atol=0.0),
                      f"job seed={s.seed}: result differs from Device.run_bc")
        out.info["verified_jobs"] = len(checked)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _zipf_streams(seed: int, n: int, s: float = 1.1):
    """Endless job indices for timed reads and for warm-up reads, each
    Zipf(``s``) over one seed-shuffled popularity ranking."""
    order = np.random.default_rng([seed, 0]).permutation(n)
    p = 1.0 / np.arange(1, n + 1) ** s
    p /= p.sum()

    def stream(rng):
        while True:
            yield from order[rng.choice(n, size=1024, p=p)].tolist()

    return (stream(np.random.default_rng([seed, 1])),
            stream(np.random.default_rng([seed, 2])))


def _service_repeat(seed: int, seconds: float, trace: bool, size: Size,
                   out_dir: str) -> Outcome:
    out = Outcome()
    spec = _job_spec(seed, size)
    specs = [spec(i) for i in range(size.preload_jobs)]
    ds, sf = size.service_graph
    tmp = tempfile.mkdtemp(prefix="repeat-", dir=out_dir)
    preloaded = os.path.join(tmp, "preloaded")
    try:
        t0 = time.perf_counter()
        c = _Client(preloaded)
        digests, sims = [], defaultdict(list)
        for s in specs:
            values, meta = c.job(s)
            digests.append(_digest(values))
            sims[s.strategy].append(meta["sim_seconds"])
        c.close()
        out.info["preload_s"] = time.perf_counter() - t0
        timed_reads, warmup_reads = _zipf_streams(seed, len(specs))

        def read(c: _Client, latencies=None) -> None:
            k = next(warmup_reads if latencies is None else timed_reads)
            t0 = time.perf_counter()
            try:
                values, _ = c.client.result(c.client.submit(specs[k]))
            except ServiceError as exc:
                out.check(False, f"read of job {k}: {type(exc).__name__}")
                return
            if latencies is not None:
                latencies.append(time.perf_counter() - t0)
            out.check(_digest(values) == digests[k],
                      f"read of job {k}: result differs from its preload")

        def setup(previous):
            """Restart the service on a copy of the preloaded directory
            (so every restart replays the same history), warmed up; the
            set-up time is to the first result."""
            if previous is not None:
                previous.close()
            root = shutil.copytree(preloaded, tempfile.mkdtemp(dir=tmp),
                                   dirs_exist_ok=True)
            # The history is at rest on disk before a real restart;
            # flush the copy so timed fsyncs do not write it back.
            os.sync()
            t0 = time.perf_counter()
            c = _Client(root)
            read(c)
            elapsed = time.perf_counter() - t0
            for _ in range(size.warmup_jobs - 1):
                read(c)
            return c, elapsed

        if trace:
            c, _ = setup(None)
            baseline = []
            for _ in range(size.traced_requests):
                read(c, baseline)
            c = _traced(out, "service-repeat", seed, out_dir, baseline,
                        lambda _: setup(c), read, size.traced_requests,
                        "read")
        else:
            c = _measure(out, seconds, size.min_requests, size.setup_repeats,
                         setup, read)
            g = generators.make_dataset(ds, scale_factor=sf, seed=GRAPH_SEED)
            _sim_mteps(out, g, min(size.service_roots, g.num_vertices), sims)
        out.check(len(c.service.jobs) == len(specs),
                  "reads created jobs instead of deduplicating")
        c.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool = False,
                 size: Size = FULL, out_dir: str | None = None) -> Outcome:
    """Run workload ``name`` in this process."""
    if out_dir is None:
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "out")
    os.makedirs(out_dir, exist_ok=True)
    if name == "grid-scalefree":
        return _grid(size.scalefree, "off", name, seed, seconds, trace, size,
                     out_dir)
    if name == "grid-deep":
        return _grid(size.deep, "sampled", name, seed, seconds, trace, size,
                     out_dir)
    if name == "service-fresh":
        return _service_fresh(seed, seconds, trace, size, out_dir)
    if name == "service-repeat":
        return _service_repeat(seed, seconds, trace, size, out_dir)
    raise KeyError(f"unknown workload {name!r}; known: {WORKLOADS}")
