"""Fault-hardened job scheduler over a pool of simulated devices.

:class:`Scheduler.execute` owns one job's whole life after admission:

* **Placement** — jobs go to the device with the earliest simulated
  availability (FIFO per device, deterministic tie-break by name).
* **Straggler-aware re-dispatch** — a run whose effective slowdown
  factor reaches ``redispatch_factor`` is speculatively re-executed on
  the fastest healthy device and the earlier completion wins (the
  classic backup-task defence; Vella et al.'s multi-GPU scheduling
  concern).
* **Bounded retries with exponential backoff + jitter** — transient
  faults (fail-stop, simulated OOM, detected silent corruption) retry
  up to ``max_retries`` times; each delay is
  :func:`~repro._util.backoff_delay` of the attempt, doubling from
  ``base`` with deterministic jitter drawn from
  ``(seed, job_id, attempt)``, so the same seed and the same
  :class:`~repro.resilience.FaultPlan` replay byte-identically — the
  property the determinism suite locks down.
* **Per-job deadlines** — a run needing more simulated compute than
  ``deadline_seconds`` degrades to a root-sampled Brandes–Pich estimate
  (scaled, flagged ``exact=False``) when the job allows it, else fails
  with a typed deadline error.
* **Circuit breaker** — ``threshold`` consecutive job failures on one
  ``(graph digest, strategy)`` pair open the breaker: further jobs on
  the pair fail fast (no retries burned) until ``cooldown`` sheds have
  passed and a half-open probe succeeds.

Chaos testing plugs in through :attr:`JobSpec.faults`: a standard
``FaultPlan`` spec whose events are consumed across the job's attempts,
exactly like the resilient driver consumes them across recovery rounds.

Every decision goes to the :attr:`Scheduler.on_decision` hook (the
daemon journals each as a ``sched`` record) with simulated values only —
the decisions of two identical runs are byte-identical under canonical
JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import DEFAULT_BACKOFF_BASE, DEFAULT_BACKOFF_CAP, backoff_delay
from ..errors import (
    DeviceOutOfMemoryError,
    RankFailure,
    SilentCorruptionError,
)
from ..gpusim import GTX_TITAN, Device
from ..observability.clock import SpanClock
from ..observability.registry import NULL_REGISTRY
from ..resilience import FaultPlan, FaultyDevice
from .jobs import JobSpec

__all__ = [
    "CircuitBreaker",
    "SimDevice",
    "JobOutcome",
    "Scheduler",
    "sample_roots",
]

#: Exceptions the scheduler treats as retryable attempt failures.
_RETRYABLE = (RankFailure, DeviceOutOfMemoryError, SilentCorruptionError)


def sample_roots(g, spec: JobSpec) -> np.ndarray:
    """The job's root set: ``spec.roots`` vertices drawn without
    replacement from ``spec.seed`` (sorted, capped at the graph order)."""
    rng = np.random.default_rng(int(spec.seed))
    k = min(int(spec.roots), g.num_vertices)
    return np.sort(rng.choice(g.num_vertices, size=k, replace=False))


class CircuitBreaker:
    """Per-(graph, strategy) quarantine of repeatedly-failing inputs."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, threshold: int = 3, cooldown: int = 4,
                 metrics=None, on_transition=None):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown < 1:
            raise ValueError("cooldown must be >= 1")
        self.threshold = int(threshold)
        self.cooldown = int(cooldown)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        #: Optional hook ``(key, state, failures)`` fired on every state
        #: transition — the daemon journals these so quarantine survives
        #: restarts.
        self.on_transition = on_transition
        self._slots: dict = {}

    def _slot(self, key) -> dict:
        return self._slots.setdefault(
            tuple(key), {"state": self.CLOSED, "failures": 0, "shed": 0})

    def state(self, key) -> str:
        return self._slot(key)["state"]

    def _transition(self, key, slot, state: str) -> None:
        slot["state"] = state
        self.metrics.inc("service.breaker.transitions", state=state)
        if self.on_transition is not None:
            self.on_transition(tuple(key), state, slot["failures"])

    def allow(self, key) -> bool:
        """May a job on ``key`` run?  An open breaker sheds ``cooldown``
        jobs fast, then half-opens to let one probe through."""
        slot = self._slot(key)
        if slot["state"] != self.OPEN:
            return True
        slot["shed"] += 1
        if slot["shed"] >= self.cooldown:
            slot["shed"] = 0
            self._transition(key, slot, self.HALF_OPEN)
            return True
        self.metrics.inc("service.breaker.fast_failed")
        return False

    def success(self, key) -> None:
        slot = self._slot(key)
        if slot["state"] != self.CLOSED or slot["failures"]:
            slot["failures"] = 0
            slot["shed"] = 0
            self._transition(key, slot, self.CLOSED)

    def failure(self, key) -> int:
        """Record one job-level failure; returns the consecutive count."""
        slot = self._slot(key)
        slot["failures"] += 1
        if slot["state"] == self.HALF_OPEN or (
                slot["state"] == self.CLOSED
                and slot["failures"] >= self.threshold):
            slot["shed"] = 0
            self._transition(key, slot, self.OPEN)
        return slot["failures"]

    def snapshot(self) -> dict:
        return {k: dict(v) for k, v in self._slots.items()}

    def restore(self, states: dict) -> None:
        """Re-arm breakers from journal-replayed state (no hooks fired)."""
        for key, st in states.items():
            slot = self._slot(key)
            slot["state"] = st.get("state", self.CLOSED)
            slot["failures"] = int(st.get("failures", 0))
            slot["shed"] = 0


@dataclass
class SimDevice:
    """One simulated GPU in the service pool."""

    name: str
    device: Device = field(default_factory=lambda: Device(GTX_TITAN))
    #: Simulated second at which the device next becomes free.
    busy_until: float = 0.0

    @property
    def straggler_factor(self) -> float:
        return float(getattr(self.device, "straggler_factor", 1.0))


@dataclass
class JobOutcome:
    """What one :meth:`Scheduler.execute` call produced."""

    ok: bool
    values: np.ndarray | None
    exact: bool
    degraded_reason: str | None
    attempts: int
    device: str | None
    sim_seconds: float
    error: str | None = None
    error_kind: str | None = None
    redispatched: bool = False
    backoff_delays: list = field(default_factory=list)
    #: Roots actually computed (the sample size when degraded).
    samples: int | None = None


class Scheduler:
    """Executes admitted jobs on a :class:`SimDevice` pool."""

    def __init__(self, devices=None, *, max_retries: int = 3,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 backoff_cap: float = DEFAULT_BACKOFF_CAP,
                 redispatch_factor: float = 4.0,
                 overload_sample_fraction: float = 0.25,
                 breaker: CircuitBreaker | None = None,
                 seed: int = 0, metrics=None, clock: SpanClock | None = None):
        if devices is None:
            devices = [SimDevice("dev0"), SimDevice("dev1")]
        if not devices:
            raise ValueError("scheduler needs at least one device")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if redispatch_factor < 1.0:
            raise ValueError("redispatch_factor must be >= 1")
        if not 0.0 < overload_sample_fraction <= 1.0:
            raise ValueError("overload_sample_fraction must be in (0, 1]")
        self.devices = list(devices)
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.redispatch_factor = float(redispatch_factor)
        self.overload_sample_fraction = float(overload_sample_fraction)
        self.seed = int(seed)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.clock = (clock if clock is not None
                      else (self.metrics.clock if self.metrics.enabled
                            else SpanClock()))
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            metrics=self.metrics)
        #: Called with each decision dict as it is made (simulated
        #: values only; the daemon journals each one as a ``sched``
        #: record through this hook).
        self.on_decision = None

    # ------------------------------------------------------------------
    def _decide(self, kind: str, **fields) -> None:
        if self.on_decision is not None:
            self.on_decision({"decision": kind, **fields})

    def _pick_device(self) -> SimDevice:
        """Earliest-available device; name breaks ties deterministically."""
        return min(self.devices, key=lambda d: (d.busy_until, d.name))

    def _healthy_alternative(self, worse_than: float) -> SimDevice | None:
        """Fastest device strictly healthier than ``worse_than``."""
        healthy = [d for d in self.devices
                   if d.straggler_factor < worse_than]
        if not healthy:
            return None
        return min(healthy, key=lambda d: (d.straggler_factor,
                                           d.busy_until, d.name))

    def _run_once(self, dev: SimDevice, g, spec: JobSpec, roots, faults):
        """One device attempt; returns the :class:`DeviceRun`.

        With a pending fault plan the run goes through a
        :class:`~repro.resilience.FaultyDevice` bound to rank 0, with
        paranoid verification when the plan carries SDC events — a
        detected bit-flip surfaces as ``SilentCorruptionError`` and is
        retried like any other transient."""
        if faults is not None:
            fd = FaultyDevice(0, faults, spec=dev.device.spec,
                              costs=dev.device.costs)
            # The plan's straggler factor compounds the pool device's own.
            fd.straggler_factor *= dev.straggler_factor
            verify = "paranoid" if faults.sdc_pending_for(0) else "off"
            return fd.run_bc(g, strategy=spec.strategy, roots=roots,
                             metrics=self.metrics, verify=verify,
                             fold=spec.fold)
        runner = dev.device
        return runner.run_bc(g, strategy=spec.strategy, roots=roots,
                             metrics=self.metrics, fold=spec.fold)

    def _sampled_estimate(self, dev: SimDevice, g, spec: JobSpec, roots,
                          k: int):
        """Brandes–Pich estimate from ``k`` of the job's roots, rescaled
        by ``len(roots)/k`` (the resilient driver's degradation path)."""
        rng = np.random.default_rng([int(spec.seed), 0x5E44])
        sample = np.sort(rng.choice(roots, size=int(k), replace=False))
        run = dev.device.run_bc(g, strategy=spec.strategy, roots=sample,
                                metrics=self.metrics, fold=spec.fold)
        return run.bc * (float(roots.size) / float(k)), run.seconds

    def _charge(self, dev: SimDevice, seconds: float) -> None:
        dev.busy_until += float(seconds)
        self.clock.advance(float(seconds), "compute")
        self.metrics.inc("service.device_seconds", float(seconds),
                         device=dev.name)

    # ------------------------------------------------------------------
    def execute(self, spec: JobSpec, g, roots: np.ndarray, *,
                prior_attempts: int = 0,
                degrade_reason: str | None = None,
                on_start=None, on_requeue=None) -> JobOutcome:
        """Run one admitted job to a terminal outcome.

        Parameters
        ----------
        roots:
            The job's :func:`sample_roots`, drawn once by the caller.
        prior_attempts:
            Attempts already charged against the job (crash recovery
            resumes the retry budget, it does not reset it).
        degrade_reason:
            Non-``None`` when admission downgraded the job (overload
            mode): the job runs as a flagged sampled estimate directly.
        on_start, on_requeue:
            Journalling hooks: ``on_start(attempt, device_name)`` fires
            before compute, ``on_requeue(attempt, delay, reason)`` after
            a failed attempt that will be retried.  The daemon threads
            its WAL appends through these so every scheduler state is
            crash-recoverable.
        """
        graph_key = g.digest()[:12]
        breaker_key = (graph_key, spec.strategy)
        delays: list = []

        if not self.breaker.allow(breaker_key):
            slot_failures = self.breaker._slot(breaker_key)["failures"]
            self._decide("circuit-open", job_id=spec.job_id,
                         graph_key=graph_key, strategy=spec.strategy,
                         failures=slot_failures)
            return JobOutcome(
                ok=False, values=None, exact=False, degraded_reason=None,
                attempts=prior_attempts, device=None, sim_seconds=0.0,
                error=f"circuit open for ({graph_key}, {spec.strategy}) "
                      f"after {slot_failures} consecutive failures",
                error_kind="circuit-open")

        faults = (FaultPlan.parse(spec.faults).start(seed=spec.seed)
                  if spec.faults else None)

        # Overload mode decided at admission: cheap flagged answer now.
        if degrade_reason is not None:
            with self.metrics.span("service.job", job_id=spec.job_id,
                                   mode="degraded"):
                dev = self._pick_device()
                attempt = prior_attempts + 1
                if on_start is not None:
                    on_start(attempt, dev.name)
                k = max(1, int(roots.size * self.overload_sample_fraction))
                values, seconds = self._sampled_estimate(dev, g, spec,
                                                         roots, k)
                self._charge(dev, seconds)
                self._decide("overload-degrade", job_id=spec.job_id,
                             device=dev.name, samples=int(k),
                             roots=int(roots.size))
                self.breaker.success(breaker_key)
                return JobOutcome(
                    ok=True, values=values, exact=False,
                    degraded_reason=degrade_reason, attempts=attempt,
                    device=dev.name, sim_seconds=float(seconds),
                    backoff_delays=delays, samples=int(k))

        attempt = prior_attempts
        last_error: Exception | None = None
        max_attempts = self.max_retries + 1
        while attempt < max_attempts:
            attempt += 1
            dev = self._pick_device()
            self._decide("dispatch", job_id=spec.job_id, attempt=attempt,
                         device=dev.name,
                         busy_until=float(dev.busy_until))
            if on_start is not None:
                on_start(attempt, dev.name)
            try:
                with self.metrics.span("service.attempt",
                                       job_id=spec.job_id, attempt=attempt):
                    run = self._run_once(dev, g, spec, roots, faults)
            except _RETRYABLE as exc:
                last_error = exc
                kind = type(exc).__name__
                self.metrics.inc("service.attempt_failures", kind=kind)
                self._decide("attempt-failed", job_id=spec.job_id,
                             attempt=attempt, device=dev.name, error=kind)
                if attempt >= max_attempts:
                    break
                delay = backoff_delay(attempt, base=self.backoff_base,
                                      cap=self.backoff_cap, seed=self.seed,
                                      token=spec.job_id)
                delays.append(delay)
                self.clock.advance(delay, "backoff")
                self.metrics.inc("service.retries")
                self._decide("retry", job_id=spec.job_id, attempt=attempt,
                             delay=delay)
                if on_requeue is not None:
                    on_requeue(attempt, delay, kind)
                continue

            seconds = float(run.seconds)
            device_name = dev.name
            redispatched = False
            # Straggler defence: a run slowed by >= redispatch_factor is
            # speculatively re-executed on the fastest healthy device;
            # the backup's completion wins, the original's work is sunk.
            fault_straggle = faults.straggler_factor(0) if faults else 1.0
            effective = dev.straggler_factor * fault_straggle
            if effective >= self.redispatch_factor:
                alt = self._healthy_alternative(effective)
                if alt is not None:
                    self._decide("redispatch", job_id=spec.job_id,
                                 attempt=attempt, slow_device=dev.name,
                                 device=alt.name,
                                 factor=float(effective))
                    self._charge(dev, seconds)  # sunk speculative work
                    run = alt.device.run_bc(g, strategy=spec.strategy,
                                            roots=roots,
                                            metrics=self.metrics,
                                            fold=spec.fold)
                    seconds = float(run.seconds)
                    device_name = alt.name
                    dev = alt
                    redispatched = True
                    self.metrics.inc("service.redispatched")

            deadline = spec.deadline_seconds
            if deadline is not None and seconds > deadline:
                if spec.allow_degrade and roots.size > 1:
                    k = max(1, min(roots.size - 1,
                                   int(roots.size * deadline / seconds)))
                    values, est_seconds = self._sampled_estimate(
                        dev, g, spec, roots, k)
                    # The exact attempt is aborted at the deadline; the
                    # estimate's own cost is charged on top.
                    self._charge(dev, float(deadline) + est_seconds)
                    self._decide("deadline-degrade", job_id=spec.job_id,
                                 attempt=attempt, device=device_name,
                                 needed=seconds, deadline=float(deadline),
                                 samples=int(k))
                    self.metrics.inc("service.deadline_degraded")
                    self.breaker.success(breaker_key)
                    return JobOutcome(
                        ok=True, values=values, exact=False,
                        degraded_reason="deadline", attempts=attempt,
                        device=device_name,
                        sim_seconds=float(deadline) + float(est_seconds),
                        redispatched=redispatched, backoff_delays=delays,
                        samples=int(k))
                self._charge(dev, float(deadline))
                self._decide("deadline-exceeded", job_id=spec.job_id,
                             attempt=attempt, device=device_name,
                             needed=seconds, deadline=float(deadline))
                self.metrics.inc("service.deadline_failures")
                self.breaker.failure(breaker_key)
                return JobOutcome(
                    ok=False, values=None, exact=False,
                    degraded_reason=None, attempts=attempt,
                    device=device_name, sim_seconds=float(deadline),
                    error=f"job {spec.job_id!r} needs {seconds:.4f}s "
                          f"simulated compute but its deadline is "
                          f"{float(deadline):.4f}s",
                    error_kind="deadline",
                    redispatched=redispatched, backoff_delays=delays)

            self._charge(dev, seconds)
            self._decide("done", job_id=spec.job_id, attempt=attempt,
                         device=device_name, sim_seconds=seconds)
            self.breaker.success(breaker_key)
            return JobOutcome(
                ok=True, values=run.bc, exact=True, degraded_reason=None,
                attempts=attempt, device=device_name,
                sim_seconds=seconds, redispatched=redispatched,
                backoff_delays=delays, samples=int(roots.size))

        # Retries exhausted.
        failures = self.breaker.failure(breaker_key)
        self.metrics.inc("service.jobs_failed", kind="retries-exhausted")
        self._decide("fail", job_id=spec.job_id, attempts=attempt,
                     error=type(last_error).__name__,
                     consecutive_failures=failures)
        return JobOutcome(
            ok=False, values=None, exact=False, degraded_reason=None,
            attempts=attempt, device=None, sim_seconds=0.0,
            error=f"{attempt} attempt(s) failed; last: {last_error}",
            error_kind="retries-exhausted", backoff_delays=delays)
