"""The ``repro.events/v1`` lifecycle event stream, derived from the
journal.

There is no second log: :func:`read_events` walks the service journal
chain and maps each record to exactly one event, in journal order.
Each event carries:

``event``
    Event kind.  State records map to ``service-open``, ``submit``,
    ``shed``, ``attempt-start``, ``backoff``, ``done``, ``fail``,
    ``cancel`` and ``breaker``; narration records to the scheduler's
    ``sched.<decision>`` kinds (``sched.dispatch``, ``sched.retry``,
    ``sched.redispatch``, ``sched.deadline-degrade`` …) and the
    client-visible ``dedupe``.
``seq``
    The event's position in the derived stream (1-based).
``jseq``
    The sequence number of the journal record it was derived from.
``t``
    The record's ``t``: *simulated* seconds on the scheduler clock when
    it was appended.  Never a wall-clock reading, which is what makes
    two identical seeded runs byte-identical.
``trace_id``
    :func:`trace_id_for` of the job's spec, taken from its ``submit`` or
    ``shed`` record — a pure function of the content key, so a
    ``derive_job_id``-deduped resubmit (and a client retry after a
    shed) lands on the *same* trace without any id riding the spool
    ticket or the journal.

Per-job phase accounting is computed on the way: an ``attempt-start``
carries the ``queue_wait`` since the job was last ready, and ``done``
and ``fail`` carry ``phases`` (queued, backoff, compute) and their sum
``e2e``.

**Exactly-once by construction.**  One durable record, one event: a
crash can only lose a record the journal never acknowledged, and
nothing is ever mirrored twice.  With journal rotation on, the view
covers exactly the history compaction keeps.
"""

from __future__ import annotations

import os

# NOTE: nothing from repro.service is imported at module level — the
# daemon imports this package, so a top-level import back into
# repro.service would be circular.

__all__ = [
    "EVENTS_SCHEMA",
    "TelemetryLog",
    "derive_events",
    "read_events",
    "trace_id_for",
]

EVENTS_SCHEMA = "repro.events/v1"


def trace_id_for(spec) -> str:
    """The job's trace id: ``tr`` + 16 hex chars of its content key.

    A pure function of *what the job computes* (job id and tenant are
    excluded by :meth:`~repro.service.jobs.JobSpec.content_key`), so
    every resubmission of the same query — a client retry after a shed,
    a ``derive_job_id``-deduped double-send, a recovery re-run — joins
    the one trace.  Accepts a :class:`JobSpec` or its dict form.
    """
    if isinstance(spec, dict):
        from ..service.jobs import JobSpec

        spec = JobSpec.from_dict(spec)
    return "tr" + spec.content_key()[:16]


class TelemetryLog:
    """Derives the event stream one journal record at a time.

    :meth:`on_journal_record` maps a record to its event and keeps the
    per-job trace ids and phase accounting the later records need;
    :meth:`emit` appends one event to :attr:`events`.
    """

    def __init__(self):
        self.events: list = []
        #: job id -> trace id, learned from submit/shed records.
        self._trace: dict = {}
        #: job id -> phase accounting (see :meth:`_job`).
        self._jobs: dict = {}

    def _job(self, job_id: str, *, fresh: bool = False) -> dict:
        st = self._jobs.get(job_id)
        if st is None or (fresh and st["terminal"]):
            # First sight, or another admission after a terminal state.
            st = self._jobs[job_id] = {"queued": 0.0, "backoff": 0.0,
                                       "ready_t": 0.0, "terminal": False}
        return st

    def emit(self, kind: str, rec: dict, **fields) -> dict:
        """Append the event for journal record ``rec``; returns it."""
        event = {"event": str(kind), "seq": len(self.events) + 1,
                 "t": float(rec.get("t", 0.0)), "jseq": rec.get("seq"),
                 **fields}
        self.events.append(event)
        return event

    def on_journal_record(self, rec: dict) -> dict:
        """Map one journal record to its lifecycle event (appended and
        returned)."""
        kind = rec.get("kind")
        t = float(rec.get("t", 0.0))
        if kind == "open":
            return self.emit("service-open", rec)
        if kind in ("submit", "shed"):
            job = rec.get("job") or {}
            job_id = str(job.get("job_id", ""))
            try:
                trace = trace_id_for(job)
            except Exception:
                trace = None
            if trace and job_id:
                self._trace[job_id] = trace
            common = {
                "trace_id": trace, "job_id": job_id,
                "tenant": job.get("tenant"), "graph": job.get("graph"),
                "strategy": job.get("strategy"),
                "roots": job.get("roots"),
            }
            if kind == "submit":
                self._job(job_id, fresh=True)["ready_t"] = t
                return self.emit("submit", rec, mode=rec.get("mode"),
                                 **common)
            self._job(job_id)["terminal"] = True
            return self.emit("shed", rec, reason=rec.get("reason"), **common)
        if kind == "sched":
            fields = {k: v for k, v in rec.items()
                      if k not in ("kind", "seq", "t", "decision")}
            trace = self._trace.get(fields.get("job_id"))
            if trace:
                fields["trace_id"] = trace
            return self.emit(f"sched.{rec.get('decision')}", rec, **fields)
        job_id = str(rec.get("job_id", ""))
        trace = self._trace.get(job_id)
        if kind == "dedupe":
            return self.emit("dedupe", rec, trace_id=trace, job_id=job_id,
                             by=rec.get("by"), state=rec.get("state"))
        if kind == "start":
            st = self._job(job_id)
            st["terminal"] = False
            queue_wait = round(max(0.0, t - st["ready_t"]), 9)
            st["queued"] += queue_wait
            return self.emit("attempt-start", rec, trace_id=trace,
                             job_id=job_id, attempt=rec.get("attempt"),
                             device=rec.get("device"), queue_wait=queue_wait)
        if kind == "requeue":
            st = self._job(job_id)
            delay = round(float(rec.get("delay") or 0.0), 9)
            st["backoff"] += delay
            st["ready_t"] = t
            return self.emit("backoff", rec, trace_id=trace, job_id=job_id,
                             attempt=rec.get("attempt"), delay=delay,
                             reason=rec.get("reason"))
        if kind in ("done", "fail"):
            st = self._job(job_id)
            st["terminal"] = True
            compute = round(float(rec.get("sim_seconds") or 0.0), 9)
            phases = {"queued": round(st["queued"], 9),
                      "backoff": round(st["backoff"], 9),
                      "compute": compute}
            e2e = round(phases["queued"] + phases["backoff"] + compute, 9)
            if kind == "done":
                return self.emit("done", rec, trace_id=trace, job_id=job_id,
                                 exact=rec.get("exact"),
                                 degraded_reason=rec.get("degraded_reason"),
                                 device=rec.get("device"),
                                 samples=rec.get("samples"),
                                 phases=phases, e2e=e2e)
            return self.emit("fail", rec, trace_id=trace, job_id=job_id,
                             error_kind=rec.get("error_kind"),
                             error=rec.get("error"), phases=phases, e2e=e2e)
        if kind == "cancel":
            self._job(job_id)["terminal"] = True
            return self.emit("cancel", rec, trace_id=trace, job_id=job_id,
                             reason=rec.get("reason"))
        if kind == "breaker":
            return self.emit("breaker", rec, graph_key=rec.get("graph_key"),
                             strategy=rec.get("strategy"),
                             state=rec.get("state"),
                             failures=rec.get("failures"))
        # Forward compatibility: an unknown journal kind still gets a
        # covering event, so every record has exactly one.
        return self.emit("journal-record", rec, kind=kind)


def derive_events(records) -> list:
    """The event stream of a journal record list (one event each)."""
    log = TelemetryLog()
    for rec in records:
        log.on_journal_record(rec)
    return log.events


def read_events(source):
    """The event stream of the journal chain at ``source`` — a service
    root or a journal path; returns ``(events, torn_tail)``.

    Reads with the journal's own rules
    (:func:`~repro.service.journal.read_journal_chain`): a torn tail on
    the active segment is dropped and flagged, any other damage raises
    :class:`~repro.errors.JournalCorruptionError`.  A missing journal
    reads as an empty stream."""
    from ..service.journal import read_journal_chain

    path = str(source)
    if os.path.isdir(path):
        path = os.path.join(path, "journal.jsonl")
    records, torn = read_journal_chain(path)
    return derive_events(records), torn
