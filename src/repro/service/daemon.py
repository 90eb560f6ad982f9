"""The BC service daemon: load graphs once, serve many jobs, survive
``kill -9``.

:class:`BCService` ties the service layers together around one service
directory::

    <root>/journal.jsonl   write-ahead job journal (repro.job/v1)
    <root>/results/        content-addressed result cache (repro.result/v2)
    <root>/spool/          cross-process submission/cancel drop box

The journal is the only durable log.  Besides the state records replay
folds, the daemon journals two kinds of narration: each scheduler
decision (``sched``) and each resubmission folded into an existing job
(``dedupe``).  The ``repro.events/v1`` telemetry stream is derived from
the whole journal when it is read (:func:`repro.telemetry.read_events`).

**Durability contract.**  Every externally visible state change is
journalled (fsynced) *before* it is acknowledged, and results are
materialised into the cache *before* their ``done`` record is written.
Narration is written to the journal before the call that made it
returns, but not fsynced: it becomes durable with the next state
record's fsync, a journal rotation or :meth:`BCService.close`, so
``kill -9`` never loses it and a power loss can lose only narration
after the last state record, which replay ignores (the journal drops
such a damaged tail at open).  So after a crash at any instant,
replaying the journal reconstructs a state from which re-running the
pending queue converges to exactly the terminal states a crash-free
run reaches:

* crash before ``submit`` landed — the client never got an ack, the job
  does not exist;
* crash while ``RUNNING`` — replay requeues the job (attempt count
  preserved, so the retry budget is not reset);
* crash after the cache write but before ``done`` — the job is requeued
  and its first scheduling step hits the cache (content-addressed keys
  make recomputation idempotent), so the result is never computed twice
  *observably* and never lost.

**Cross-process protocol.**  Clients never talk to the daemon directly:
``repro service submit`` drops an atomically-renamed ticket into the
spool, the daemon folds it in on its next poll, and ``repro service
status`` reads the journal — which is valid at every instant — without
coordinating with the daemon at all.
"""

from __future__ import annotations

import json
import os
import signal
import time
from collections import Counter, deque

from ..errors import (
    JobNotFoundError,
    JobSpecError,
    ServiceOverloadError,
    StorageFullError,
)
from ..graph.generators import make_dataset
from ..observability.registry import MetricsRegistry
from .admission import AdmissionController, AdmissionPolicy
from .cache import ResultCache, result_key
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    SHED,
    JobRecord,
    JobSpec,
)
from .journal import JobJournal, replay_state
from .scheduler import Scheduler, sample_roots
from .storage import ServiceStorage

__all__ = ["BCService"]

_LIVE_STATES = (PENDING, RUNNING)


class BCService:
    """One service instance rooted at a directory (see module docs).

    Storage-hardening knobs (all optional, defaults = unbounded and
    healthy, the original behaviour):

    ``storage``
        A :class:`~repro.service.storage.ServiceStorage` every durable
        write routes through — the soak harness hands one wired with
        injected disk faults and/or a ``crash_after`` op counter.
    ``journal_max_segment_bytes`` / ``journal_keep_terminal``
        Journal rotation + compaction budget (see
        :class:`~repro.service.journal.JobJournal`).
    ``cache_max_bytes``
        LRU byte budget for the result cache; in-flight entries are
        pinned, evicted ones are recomputed on demand.
    """

    def __init__(self, root, *, policy: AdmissionPolicy | None = None,
                 scheduler: Scheduler | None = None, metrics=None,
                 storage: ServiceStorage | None = None,
                 journal_max_segment_bytes: int | None = None,
                 journal_keep_terminal: int = 8,
                 cache_max_bytes: int | None = None):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        # A real registry by default: admission/scheduler/journal/cache
        # counters are cheap, and `serve --metrics-out` should export
        # real numbers without the caller having to wire anything.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.storage = (storage if storage is not None
                        else ServiceStorage(metrics=self.metrics))
        self.scheduler = (scheduler if scheduler is not None
                          else Scheduler(metrics=self.metrics))
        # Records are stamped on the scheduler's simulated clock.
        self.journal = JobJournal(os.path.join(self.root, "journal.jsonl"),
                                  metrics=self.metrics, storage=self.storage,
                                  max_segment_bytes=journal_max_segment_bytes,
                                  keep_terminal=journal_keep_terminal,
                                  clock=self.scheduler.clock)
        self.cache = ResultCache(os.path.join(self.root, "results"),
                                 metrics=self.metrics, storage=self.storage,
                                 max_bytes=cache_max_bytes)
        # Journal ENOSPC reclaim may also free cache space (eviction
        # deletes, so it works even when no write can).
        self.journal.on_reclaim = lambda: self.cache.evict_lru(
            want_free=max(4096, self.cache.total_bytes // 2))
        self.spool_dir = os.path.join(self.root, "spool")
        os.makedirs(self.spool_dir, exist_ok=True)
        # A ticket whose writer died before its rename was never
        # acknowledged; its tmp is crash debris, cleaned at open like
        # the journal's.
        for name in os.listdir(self.spool_dir):
            if name.endswith(".tmp"):
                try:
                    os.remove(os.path.join(self.spool_dir, name))
                except OSError:
                    pass
        self.admission = AdmissionController(policy, metrics=self.metrics)
        # Quarantine decisions survive restarts via `breaker` records.
        self.scheduler.breaker.on_transition = self._journal_breaker
        self._stop = False

        state = replay_state(self.journal.take_history(), self.journal.path)
        self.jobs = state.jobs
        # Live (pending or running) jobs per tenant, admission's quota
        # input; _set_state keeps it current so admission never scans.
        self._live = Counter(j.spec.tenant for j in self.jobs.values()
                             if j.state in _LIVE_STATES)
        self.queue = deque(state.pending_ids())
        #: Jobs found RUNNING in the journal and requeued at startup.
        self.recovered_ids = list(state.interrupted)
        self.scheduler.breaker.restore(state.breakers)
        if self.recovered_ids:
            self.metrics.inc("service.jobs_recovered",
                             float(len(self.recovered_ids)))
            # Make the recovery requeue explicit in the journal: the
            # prior process died after `start`, so without this record
            # the re-run's own `start` would read as an illegal
            # running->running transition on the *next* replay.
            for job_id in self.recovered_ids:
                self.journal.append("requeue", job_id=job_id,
                                    reason="recovered")
        self._graphs: dict = {}
        self._next_id = 1 + max(
            (int(j[1:]) for j in self.jobs if j.startswith("j")
             and j[1:].isdigit()), default=0)
        # Content-hash dedupe index (submit idempotency): latest job id
        # per content key, rebuilt from the replayed journal so retried
        # submits after a crash still land on the original job.
        self._by_content: dict = {}
        for job in sorted(self.jobs.values(), key=lambda j: j.submit_seq):
            self._by_content[job.spec.content_key()] = job.job_id
        #: Storage-full requeues per live job (bounded; then the job
        #: fails).
        self._storage_requeues: dict = {}
        self.scheduler.on_decision = lambda d: self._narrate("sched", **d)

    # -- infrastructure ------------------------------------------------
    def _narrate(self, kind: str, **fields) -> None:
        """Journal one ``sched``/``dedupe`` record.  Narration never
        fails the service: if the disk stays full through the journal's
        reclaim and retry, the record is dropped and counted."""
        try:
            self.journal.append(kind, **fields)
        except StorageFullError:
            self.metrics.inc("telemetry.dropped", kind=kind)

    def _journal_breaker(self, key, state, failures) -> None:
        graph_key, strategy = key
        self.journal.append("breaker", graph_key=graph_key,
                            strategy=strategy, state=state,
                            failures=int(failures))

    def _graph(self, spec: JobSpec):
        gkey = (spec.graph, int(spec.scale_factor), int(spec.graph_seed))
        g = self._graphs.get(gkey)
        if g is None:
            with self.metrics.span("service.load_graph", graph=spec.graph):
                g = make_dataset(spec.graph, scale_factor=spec.scale_factor,
                                 seed=spec.graph_seed)
            self._graphs[gkey] = g
            self.metrics.inc("service.graphs_loaded")
        return g

    @staticmethod
    def _fold_digest(g, spec: JobSpec) -> str | None:
        """The job's fold digest (a result-key determinant), or ``None``
        for unfolded jobs; the fold is cached on the graph."""
        if not spec.fold:
            return None
        from ..bc.preprocess import fold_degree_one

        return fold_degree_one(g).digest()

    def _tenant_live(self, tenant: str) -> int:
        return self._live[tenant]

    def _set_state(self, job: JobRecord, state: str) -> None:
        """Move ``job`` to ``state``, keeping the per-tenant live
        counts in step.  A terminal job's story is in the journal, so
        the registry drops its events and spans and keeps its totals,
        and its storage-full strikes go with it (a resubmit starts
        afresh)."""
        self._live[job.spec.tenant] += ((state in _LIVE_STATES)
                                        - (job.state in _LIVE_STATES))
        job.state = state
        if state not in _LIVE_STATES:
            self.metrics.drop_history()
            self._storage_requeues.pop(job.job_id, None)

    #: States under which a content-identical resubmit is folded into
    #: the existing job rather than enqueued again.  Terminal failures
    #: (FAILED/CANCELLED/SHED) do *not* dedupe — resubmitting is the
    #: client's way of asking for another attempt.
    _DEDUPE_STATES = (PENDING, RUNNING, DONE)

    # -- client surface ------------------------------------------------
    def submit(self, spec) -> JobRecord:
        """Admit one job (or shed it with ``ServiceOverloadError``).

        Returns the queued :class:`JobRecord`; its ``submit`` journal
        record is durable before this method returns.

        **Idempotency.**  A submission whose
        :meth:`~repro.service.jobs.JobSpec.content_key` matches a job
        that is pending, running, or done returns that existing record
        — no new journal record, no second execution — so a client
        retrying a lost ack can never duplicate work.  Reusing a job id
        for *different* content is still an error.
        """
        if isinstance(spec, dict):
            spec = JobSpec.from_dict(spec)
        ck = spec.content_key()
        if spec.job_id and spec.job_id in self.jobs:
            existing = self.jobs[spec.job_id]
            if existing.spec.content_key() != ck:
                raise JobSpecError(f"duplicate job id {spec.job_id!r}")
            if existing.state in self._DEDUPE_STATES:
                self.metrics.inc("service.deduped", by="job-id")
                self._narrate("dedupe", job_id=existing.job_id, by="job-id",
                              state=existing.state)
                return existing
            # Identical content whose prior run ended in a terminal
            # failure (failed/cancelled/shed): resubmission is the
            # client asking for another attempt.  Fall through to
            # admission under the same id — replay honours the later
            # submit record.
        prior_id = self._by_content.get(ck)
        if prior_id is not None:
            prior = self.jobs.get(prior_id)
            if prior is not None and prior.state in self._DEDUPE_STATES:
                self.metrics.inc("service.deduped", by="content")
                self._narrate("dedupe", job_id=prior.job_id, by="content",
                              state=prior.state)
                return prior
        if not spec.job_id:
            spec = spec.with_id(f"j{self._next_id:06d}")
            self._next_id += 1
        try:
            mode = self.admission.decide(spec, len(self.queue),
                                         self._tenant_live(spec.tenant))
        except ServiceOverloadError as exc:
            # Shedding is journalled too: a shed job has a queryable
            # terminal state instead of silently vanishing.
            rec = self.journal.append("shed", job=spec.to_dict(),
                                      reason=str(exc))
            self.jobs[spec.job_id] = JobRecord(
                spec=spec, state=SHED, submit_seq=rec["seq"],
                error=str(exc))
            raise
        rec = self.journal.append("submit", job=spec.to_dict(), mode=mode)
        job = JobRecord(spec=spec, state=PENDING, submit_seq=rec["seq"],
                        admit_degraded=(mode == "degrade"))
        self.jobs[spec.job_id] = job
        self._live[spec.tenant] += 1
        self._by_content[ck] = spec.job_id
        self.queue.append(spec.job_id)
        return job

    def status(self, job_id: str | None = None):
        """One job's status dict, or every job's (submit order)."""
        if job_id is not None:
            job = self.jobs.get(job_id)
            if job is None:
                raise JobNotFoundError(job_id)
            return job.status_dict()
        ordered = sorted(self.jobs.values(), key=lambda j: j.submit_seq)
        return [j.status_dict() for j in ordered]

    def cancel(self, job_id: str) -> bool:
        """Cancel a PENDING job; ``False`` if it already left the queue."""
        job = self.jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(job_id)
        if job.state != PENDING:
            return False
        self.journal.append("cancel", job_id=job_id, reason="client cancel")
        self._set_state(job, CANCELLED)
        job.error = "client cancel"
        try:
            self.queue.remove(job_id)
        except ValueError:
            pass
        self.metrics.inc("service.jobs_cancelled")
        return True

    def result(self, job_id: str):
        """A DONE job's ``(values, meta)``, self-healing on cache rot.

        A corrupt cache entry is evicted by the verified read and the
        result recomputed from the job's determinants — same key, same
        bytes — so corruption at rest is repaired, never served.
        """
        job = self.jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(job_id)
        if job.state != DONE or job.result_key is None:
            raise JobSpecError(
                f"job {job_id!r} has no result (state={job.state})")
        hit = self.cache.get(job.result_key)
        if hit is not None:
            return hit
        self.metrics.inc("service.results_healed")
        return self._recompute(job)

    def _recompute(self, job: JobRecord):
        """Re-materialise a DONE job's result (idempotent by keying).

        The ``done`` journal record carries everything the result is a
        function of — for degraded jobs that includes the sample count —
        so the healed entry lands on the same key with the same values.
        """
        spec = job.spec
        g = self._graph(spec)
        roots = sample_roots(g, spec)
        dev = self.scheduler._pick_device()
        if job.degraded_reason is not None:
            k = (int(job.samples) if job.samples
                 else max(1, int(roots.size
                                 * self.scheduler.overload_sample_fraction)))
            values, _ = self.scheduler._sampled_estimate(dev, g, spec,
                                                         roots, k)
        else:
            run = dev.device.run_bc(g, strategy=spec.strategy, roots=roots,
                                    metrics=self.metrics, fold=spec.fold)
            values = run.bc
        meta = {"job_id": spec.job_id, "exact": bool(job.exact),
                "degraded_reason": job.degraded_reason,
                "device": job.device, "attempts": int(job.attempt),
                "sim_seconds": float(job.sim_seconds),
                "samples": job.samples}
        self.cache.pin(job.result_key)
        try:
            self.cache.put(job.result_key, values, meta)
            return self.cache.get(job.result_key)
        finally:
            self.cache.unpin(job.result_key)

    # -- execution -----------------------------------------------------
    def _candidate_keys(self, job: JobRecord, g, roots) -> list:
        """Result keys this job could already have materialised.

        Covers the crash window between ``cache.put`` and the ``done``
        record: the admitted mode's key, plus the deadline-degraded key
        when the job could have taken that path.
        """
        spec = job.spec
        fd = self._fold_digest(g, spec)
        degraded = "overload" if job.admit_degraded else None
        keys = [(result_key(g.digest(), spec.strategy, roots, spec.seed,
                            degraded=degraded, fold_digest=fd), degraded)]
        if (degraded is None and spec.deadline_seconds is not None
                and spec.allow_degrade):
            keys.append((result_key(g.digest(), spec.strategy, roots,
                                    spec.seed, degraded="deadline",
                                    fold_digest=fd),
                         "deadline"))
        return keys

    def process_next(self) -> JobRecord | None:
        """Run the queue head to a terminal state; ``None`` if idle."""
        while self.queue:
            job_id = self.queue.popleft()
            job = self.jobs.get(job_id)
            if job is not None and job.state == PENDING:
                return self._execute(job)
        return None

    def _execute(self, job: JobRecord) -> JobRecord:
        spec = job.spec
        g = self._graph(spec)
        roots = sample_roots(g, spec)

        # Exactly-once fast path: a recovered job whose crash fell
        # between the cache write and the `done` record finds its result
        # already materialised and intact — acknowledge, don't recompute.
        for key, degraded in self._candidate_keys(job, g, roots):
            hit = self.cache.get(key)
            if hit is None:
                continue
            _, meta = hit
            self.journal.append(
                "start", job_id=spec.job_id, attempt=job.attempt + 1,
                device=meta.get("device"))
            job.attempt += 1
            self._finish_done(job, key, exact=bool(meta.get("exact",
                                                            degraded is None)),
                              degraded_reason=meta.get("degraded_reason",
                                                       degraded),
                              device=meta.get("device"),
                              sim_seconds=float(meta.get("sim_seconds", 0.0)),
                              samples=meta.get("samples"))
            self.metrics.inc("service.cache.replayed")
            return job

        def on_start(attempt: int, device: str) -> None:
            self.journal.append("start", job_id=spec.job_id,
                                attempt=attempt, device=device)
            self._set_state(job, RUNNING)
            job.attempt = attempt
            job.device = device

        def on_requeue(attempt: int, delay: float, reason: str) -> None:
            self.journal.append("requeue", job_id=spec.job_id,
                                attempt=attempt, delay=delay, reason=reason)
            self._set_state(job, PENDING)
            job.backoff_delays.append(delay)

        degrade_reason = "overload" if job.admit_degraded else None
        outcome = self.scheduler.execute(
            spec, g, prior_attempts=job.attempt,
            degrade_reason=degrade_reason,
            on_start=on_start, on_requeue=on_requeue)

        if outcome.ok:
            key = result_key(g.digest(), spec.strategy, roots, spec.seed,
                             degraded=outcome.degraded_reason,
                             fold_digest=self._fold_digest(g, spec))
            # Materialise BEFORE acknowledging: the `done` record must
            # never point at a result that might not exist.  The key is
            # pinned across the put→done window so eviction (budget or
            # ENOSPC reclaim — including the reclaim triggered by the
            # `done` append itself) can't delete the bytes the pending
            # acknowledgement is about to promise.
            self.cache.pin(key)
            try:
                self.cache.put(key, outcome.values, {
                    "job_id": spec.job_id, "exact": outcome.exact,
                    "degraded_reason": outcome.degraded_reason,
                    "device": outcome.device, "attempts": outcome.attempts,
                    "sim_seconds": outcome.sim_seconds,
                    "samples": outcome.samples})
            except StorageFullError as exc:
                self.cache.unpin(key)
                return self._storage_full_requeue(job, outcome.attempts, exc)
            try:
                job.attempt = outcome.attempts
                job.device = outcome.device
                self._finish_done(job, key, exact=outcome.exact,
                                  degraded_reason=outcome.degraded_reason,
                                  device=outcome.device,
                                  sim_seconds=outcome.sim_seconds,
                                  samples=outcome.samples)
            finally:
                self.cache.unpin(key)
        else:
            self.journal.append("fail", job_id=spec.job_id,
                                error=outcome.error,
                                error_kind=outcome.error_kind)
            self._set_state(job, FAILED)
            job.attempt = max(job.attempt, outcome.attempts)
            job.error = outcome.error
            self.metrics.inc("service.jobs_failed",
                             kind=outcome.error_kind or "error")
        return job

    def _storage_full_requeue(self, job: JobRecord, attempts: int,
                              exc) -> JobRecord:
        """The disk stayed full through reclaim: park the job instead
        of losing its work, fail it after repeated strikes.

        The requeue is journalled when the journal can still take a
        record (its appends have their own reclaim path); if even that
        fails the job stays RUNNING in the journal and crash recovery
        requeues it — the same convergence, one restart later."""
        spec = job.spec
        strikes = self._storage_requeues.get(spec.job_id, 0) + 1
        self._storage_requeues[spec.job_id] = strikes
        self.metrics.inc("service.storage_full_requeues")
        if strikes > 3:
            self.journal.append("fail", job_id=spec.job_id,
                                error=str(exc), error_kind="storage-full")
            self._set_state(job, FAILED)
            job.attempt = max(job.attempt, attempts)
            job.error = str(exc)
            self.metrics.inc("service.jobs_failed", kind="storage-full")
            return job
        self.journal.append("requeue", job_id=spec.job_id,
                            attempt=attempts, delay=0.0,
                            reason="storage-full")
        self._set_state(job, PENDING)
        job.attempt = max(job.attempt, attempts)
        self.queue.append(spec.job_id)
        return job

    def _finish_done(self, job: JobRecord, key: str, *, exact: bool,
                     degraded_reason, device, sim_seconds: float,
                     samples=None) -> None:
        self.journal.append("done", job_id=job.job_id, result_key=key,
                            exact=bool(exact),
                            degraded_reason=degraded_reason,
                            sim_seconds=float(sim_seconds), device=device,
                            samples=samples)
        self._set_state(job, DONE)
        job.result_key = key
        job.exact = bool(exact)
        job.degraded_reason = degraded_reason
        job.device = device
        job.sim_seconds = float(sim_seconds)
        job.samples = samples
        self.metrics.inc("service.jobs_done",
                         exact="true" if exact else "false")

    def run_pending(self, max_jobs: int | None = None) -> int:
        """Drain the queue (or ``max_jobs`` of it); returns jobs run."""
        done = 0
        while self.queue and (max_jobs is None or done < max_jobs):
            if self.process_next() is not None:
                done += 1
        return done

    # -- spool (cross-process submissions) -----------------------------
    def poll_spool(self) -> int:
        """Fold spool tickets in (oldest first); returns tickets taken."""
        try:
            names = sorted(n for n in os.listdir(self.spool_dir)
                           if n.endswith(".json"))
        except FileNotFoundError:
            return 0
        taken = 0
        for name in names:
            path = os.path.join(self.spool_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    ticket = json.load(fh)
            except (OSError, ValueError):
                # Torn, rotted or foreign file (bad JSON or bad UTF-8):
                # drop it; the client's unanswered poll resubmits.
                self.metrics.inc("service.spool.unreadable")
                try:
                    os.remove(path)
                except OSError:
                    pass
                continue
            try:
                os.remove(path)
            except OSError:
                pass
            taken += 1
            op = ticket.get("op") if isinstance(ticket, dict) else None
            try:
                if op == "submit":
                    self.submit(ticket.get("job", {}))
                elif op == "cancel":
                    self.cancel(str(ticket.get("job_id", "")))
                else:
                    self.metrics.inc("service.spool.bad_op")
            except (JobSpecError, JobNotFoundError, ServiceOverloadError):
                # Already journalled (shed) or inherently a client error;
                # the client sees it via `status`.
                pass
            except StorageFullError:
                # The ticket is consumed but nothing was journalled —
                # the client's poll finds the job unknown and its
                # idempotent (content-derived) job id makes the
                # resubmit safe.
                self.metrics.inc("service.spool.storage_full")
        return taken

    # -- accounting ----------------------------------------------------
    def spool_bytes(self) -> int:
        total = 0
        try:
            for name in os.listdir(self.spool_dir):
                try:
                    total += os.path.getsize(
                        os.path.join(self.spool_dir, name))
                except OSError:
                    pass
        except FileNotFoundError:
            pass
        return total

    def disk_usage(self) -> dict:
        """Bytes on disk per component (the soak harness's budget
        invariant reads this)."""
        return {
            "journal": self.journal.total_bytes(),
            "cache": self.cache.total_bytes,
            "spool": self.spool_bytes(),
        }

    # -- lifecycle -----------------------------------------------------
    def drain(self) -> int:
        """Graceful shutdown: take spooled work, finish the queue."""
        self.poll_spool()
        n = self.run_pending()
        self.metrics.inc("service.drained", float(n))
        return n

    def close(self) -> None:
        self.journal.close()

    def abandon(self) -> None:
        """Walk away without drain or close — the in-process equivalent
        of the process dying.  The instance must not be used again; the
        next :class:`BCService` on the same root recovers from the
        journal exactly as it would after SIGKILL.  Nothing is
        fsynced: unsynced narration stays where SIGKILL leaves it."""
        self._stop = True
        self.journal._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def serve_forever(self, *, poll_interval: float = 0.05,
                      throttle: float = 0.0,
                      idle_exit: float | None = None,
                      install_signals: bool = True) -> None:
        """Serve until SIGTERM/SIGINT (graceful drain) or ``idle_exit``
        seconds with no work.

        ``throttle`` sleeps (wall-clock) between jobs — the CI smoke
        test uses it to widen the window for its mid-run ``SIGKILL``.
        """
        if install_signals:
            def _request_stop(signum, frame):
                self._stop = True

            signal.signal(signal.SIGTERM, _request_stop)
            signal.signal(signal.SIGINT, _request_stop)
        idle_since = time.monotonic()
        while not self._stop:
            took = self.poll_spool()
            ran = self.run_pending(max_jobs=1)
            if throttle and ran:
                time.sleep(throttle)
            if took or ran or self.queue:
                idle_since = time.monotonic()
                continue
            if (idle_exit is not None
                    and time.monotonic() - idle_since >= idle_exit):
                break
            time.sleep(poll_interval)
        self.drain()
        self.close()
