"""End-to-end job telemetry for the BC service.

Four views over one durable artifact, the service journal:

* :mod:`~repro.telemetry.events` — the ``repro.events/v1`` lifecycle
  event stream (:func:`read_events`): every journal record, including
  the scheduler's ``sched`` decisions and ``dedupe`` folds the daemon
  journals as narration, maps to one enriched event when the journal
  is read.  Records are timestamped on the scheduler's *simulated*
  clock only, so two identical seeded runs produce byte-identical
  journals and streams, and the stream is exactly-once by
  construction: there is no second log to fall behind.
* :mod:`~repro.telemetry.timeline` — per-job/per-trace span
  reconstruction (``repro trace timeline``) and the per-attempt timing
  rows ``repro service status`` surfaces.
* :mod:`~repro.telemetry.slo` — per-tenant/per-strategy SLO accounting:
  p50/p99 end-to-end latency decomposed into queued/backoff/compute,
  shed/degraded/error-budget rates, and a latency histogram whose
  buckets carry *exemplar* job ids (``repro service top``).
* :mod:`~repro.telemetry.chrome` — Chrome trace-event export
  (Perfetto-viewable) of any job or the whole service run.

The trace id is a pure function of the job's content key
(:func:`trace_id_for`), so a ``derive_job_id``-deduped resubmit joins
the existing trace by construction — no id needs to ride the wire.
"""

from .chrome import chrome_trace, validate_chrome_trace, write_chrome_trace
from .events import (
    EVENTS_SCHEMA,
    TelemetryLog,
    derive_events,
    read_events,
    trace_id_for,
)
from .slo import LATENCY_BUCKETS, SLO_SCHEMA, aggregate_slo, render_top
from .timeline import (
    TIMELINE_SCHEMA,
    attempt_rows,
    build_timeline,
    render_timeline,
)

__all__ = [
    "EVENTS_SCHEMA",
    "LATENCY_BUCKETS",
    "SLO_SCHEMA",
    "TIMELINE_SCHEMA",
    "TelemetryLog",
    "aggregate_slo",
    "attempt_rows",
    "build_timeline",
    "chrome_trace",
    "derive_events",
    "read_events",
    "render_timeline",
    "render_top",
    "trace_id_for",
    "validate_chrome_trace",
    "write_chrome_trace",
]
