"""Chrome trace-event export of the ``repro.events/v1`` stream.

:func:`chrome_trace` converts a whole service run — or one job/trace —
into the Trace Event Format JSON object that ``chrome://tracing`` and
Perfetto load directly:

* one **process** row per tenant (named via ``M`` metadata events), one
  **thread** row per job (named with the job id);
* ``X`` complete events for the queued span, each attempt, and each
  backoff window, reconstructed from the events' simulated timestamps
  and recorded phase durations (µs scale — simulated seconds × 1e6);
* ``i`` instant events for submit/shed/done/fail/cancel;
* every slice's ``args`` carries ``trace_id``/``job_id``, and the
  document's ``otherData.slo`` embeds the
  :func:`~repro.telemetry.slo.aggregate_slo` report, whose histogram
  buckets carry exemplar job ids — so a Perfetto user can jump from a
  bad bucket straight to the offending slices.

:func:`validate_chrome_trace` is the schema check the acceptance test
and the CI telemetry job run over the export.
"""

from __future__ import annotations

import json

from ..observability.export import write_json
from .slo import aggregate_slo

__all__ = ["chrome_trace", "validate_chrome_trace", "write_chrome_trace"]

#: Phase codes the validator accepts (the subset we emit plus the
#: common duration/async ones, so hand-extended traces still validate).
_PHASES = ("X", "i", "M", "B", "E", "C")

_US = 1e6  # simulated seconds -> microseconds


def _slice(name, ts, dur, pid, tid, cat, args) -> dict:
    return {"name": str(name), "ph": "X", "ts": round(float(ts) * _US, 3),
            "dur": round(max(0.0, float(dur)) * _US, 3), "pid": int(pid),
            "tid": int(tid), "cat": str(cat), "args": args}


def _instant(name, ts, pid, tid, cat, args) -> dict:
    return {"name": str(name), "ph": "i", "ts": round(float(ts) * _US, 3),
            "pid": int(pid), "tid": int(tid), "s": "t", "cat": str(cat),
            "args": args}


def chrome_trace(events, *, job_id: str | None = None,
                 trace_id: str | None = None) -> dict:
    """The Trace Event Format document for a stream (or one job/trace).

    With ``job_id``/``trace_id`` the export is restricted to that
    job's/trace's events (a trace includes deduped sibling submits)."""
    if trace_id is None and job_id is not None:
        for ev in events:
            if ev.get("job_id") == job_id and ev.get("trace_id"):
                trace_id = ev["trace_id"]
                break
    if trace_id is not None:
        events = [ev for ev in events if ev.get("trace_id") == trace_id]
    elif job_id is not None:
        events = [ev for ev in events if ev.get("job_id") == job_id]

    pids: dict = {}     # tenant -> pid
    tids: dict = {}     # job id -> (pid, tid)
    job_tenant: dict = {}
    out: list = []

    def _pid(tenant) -> int:
        tenant = str(tenant)
        if tenant not in pids:
            pids[tenant] = len(pids) + 1
            out.append({"name": "process_name", "ph": "M",
                        "pid": pids[tenant], "tid": 0,
                        "args": {"name": f"tenant {tenant}"}})
        return pids[tenant]

    def _tid(job, tenant) -> tuple:
        if job not in tids:
            pid = _pid(tenant)
            tid = sum(1 for j, (p, _) in tids.items() if p == pid) + 1
            tids[job] = (pid, tid)
            out.append({"name": "thread_name", "ph": "M", "pid": pid,
                        "tid": tid, "args": {"name": str(job)}})
        return tids[job]

    for ev in events:
        kind = ev.get("event")
        job = ev.get("job_id")
        t = float(ev.get("t", 0.0))
        args = {"trace_id": ev.get("trace_id"), "job_id": job,
                "seq": ev.get("seq")}
        if kind in ("submit", "shed"):
            job_tenant[job] = ev.get("tenant")
            pid, tid = _tid(job, ev.get("tenant"))
            if kind == "submit":
                out.append(_instant(f"submit ({ev.get('mode')})", t, pid,
                                    tid, "lifecycle", args))
            else:
                out.append(_instant("shed", t, pid, tid, "lifecycle",
                                    dict(args, reason=ev.get("reason"))))
        elif kind == "dedupe":
            pid, tid = _tid(job, job_tenant.get(job, "?"))
            out.append(_instant(f"dedupe ({ev.get('by')})", t, pid, tid,
                                "lifecycle", args))
        elif kind == "attempt-start":
            pid, tid = _tid(job, job_tenant.get(job, "?"))
            qw = float(ev.get("queue_wait") or 0.0)
            if qw > 0:
                out.append(_slice("queued", t - qw, qw, pid, tid,
                                  "queue", args))
            out.append(_instant(
                f"attempt {ev.get('attempt')} on {ev.get('device')}",
                t, pid, tid, "attempt",
                dict(args, attempt=ev.get("attempt"),
                     device=ev.get("device"))))
        elif kind == "backoff":
            pid, tid = _tid(job, job_tenant.get(job, "?"))
            delay = float(ev.get("delay") or 0.0)
            out.append(_slice(f"backoff ({ev.get('reason')})", t - delay,
                              delay, pid, tid, "backoff",
                              dict(args, reason=ev.get("reason"))))
        elif kind in ("done", "fail"):
            pid, tid = _tid(job, job_tenant.get(job, "?"))
            phases = ev.get("phases") or {}
            compute = float(phases.get("compute") or 0.0)
            if kind == "done" and compute > 0:
                out.append(_slice(
                    f"compute on {ev.get('device')}", t - compute,
                    compute, pid, tid, "compute",
                    dict(args, exact=ev.get("exact"),
                         degraded_reason=ev.get("degraded_reason"),
                         samples=ev.get("samples"))))
            name = ("done" if kind == "done" else
                    f"fail ({ev.get('error_kind')})")
            out.append(_instant(name, t, pid, tid, "lifecycle",
                                dict(args, e2e=ev.get("e2e"))))
        elif kind == "cancel":
            pid, tid = _tid(job, job_tenant.get(job, "?"))
            out.append(_instant("cancel", t, pid, tid, "lifecycle", args))

    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": "repro.events/v1",
            "slo": aggregate_slo(events),
        },
    }


def validate_chrome_trace(doc) -> list:
    """Problems with a Trace Event Format document (empty = valid)."""
    problems = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    evs = doc.get("traceEvents")
    if not isinstance(evs, list):
        return ["traceEvents missing or not a list"]
    for i, ev in enumerate(evs):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"{where}: missing name")
        ph = ev.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"{where}: missing {key}")
    try:
        json.dumps(doc)
    except (TypeError, ValueError) as exc:
        problems.append(f"not JSON-serialisable: {exc}")
    return problems


def write_chrome_trace(path, doc: dict) -> None:
    """Validate a trace document, then write it as canonical JSON with
    :func:`~repro.observability.export.write_json`."""
    problems = validate_chrome_trace(doc)
    if problems:
        raise ValueError(f"invalid chrome trace: {problems[:3]}")
    write_json(path, doc)
