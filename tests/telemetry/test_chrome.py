"""Chrome trace-event export: structure, spans, validation, writing."""

from __future__ import annotations

import json

import pytest

from repro.service import BCService, JobSpec
from repro.telemetry import (
    chrome_trace,
    read_events,
    validate_chrome_trace,
    write_chrome_trace,
)

pytestmark = pytest.mark.telemetry


def run_events(tmp_path):
    with BCService(tmp_path / "svc") as svc:
        for i, tenant in ((1, "acme"), (2, "acme"), (3, "zoo")):
            svc.submit(JobSpec(
                job_id=f"j{i:06d}", graph="smallworld", scale_factor=512,
                strategy="sampling", roots=4, seed=i, tenant=tenant,
                faults="fail:0@compute+1" if i == 2 else ""))
        svc.run_pending()
    return read_events(tmp_path / "svc")[0]


def test_whole_run_export(tmp_path):
    events = run_events(tmp_path)
    doc = chrome_trace(events)
    assert validate_chrome_trace(doc) == []
    evs = doc["traceEvents"]
    # One process per tenant, one thread per job, each named.
    procs = [e for e in evs if e["ph"] == "M"
             and e["name"] == "process_name"]
    threads = [e for e in evs if e["ph"] == "M"
               and e["name"] == "thread_name"]
    assert {p["args"]["name"] for p in procs} == {"tenant acme",
                                                  "tenant zoo"}
    assert len(threads) == 3
    # The chaos job contributes a backoff span with a real duration.
    backoffs = [e for e in evs if e["name"].startswith("backoff")]
    assert backoffs and all(e["ph"] == "X" and e["dur"] > 0
                            for e in backoffs)
    # Timestamps are µs of simulated time, non-negative, span-consistent.
    computes = [e for e in evs if e["name"].startswith("compute")]
    assert computes
    for e in computes:
        assert e["ts"] >= 0 and e["dur"] > 0
    # args thread the trace ids through every slice.
    sliced = [e for e in evs if e["ph"] in ("X", "i")]
    assert all(e["args"].get("trace_id") for e in sliced
               if e["args"].get("job_id"))


def test_single_job_filter(tmp_path):
    events = run_events(tmp_path)
    doc = chrome_trace(events, job_id="j000002")
    assert validate_chrome_trace(doc) == []
    jobs = {e["args"].get("job_id") for e in doc["traceEvents"]
            if e["ph"] != "M" and e["args"].get("job_id")}
    assert jobs == {"j000002"}
    # Only that job's tenant row appears.
    procs = [e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"]
    assert procs == ["tenant acme"]


def test_slo_report_embedded_with_exemplars(tmp_path):
    events = run_events(tmp_path)
    doc = chrome_trace(events)
    slo = doc["otherData"]["slo"]
    assert slo["totals"]["done"] == 3
    exemplar_jobs = {ex["job_id"] for g in slo["groups"]
                     for ex in g["histogram"]["exemplars"]}
    assert exemplar_jobs <= {"j000001", "j000002", "j000003"}
    assert exemplar_jobs


def test_validate_rejects_malformed():
    assert validate_chrome_trace([]) == ["document is not an object"]
    assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
    bad = {"traceEvents": [
        {"ph": "X", "ts": 1.0, "dur": -2.0, "pid": 1, "tid": 1},
        {"name": "x", "ph": "??", "ts": -1.0, "pid": "a", "tid": 1},
    ]}
    problems = validate_chrome_trace(bad)
    assert any("missing name" in p for p in problems)
    assert any("bad dur" in p for p in problems)
    assert any("bad phase" in p for p in problems)
    assert any("bad ts" in p for p in problems)
    assert any("missing pid" in p for p in problems)


def test_write_chrome_trace_roundtrip(tmp_path):
    events = run_events(tmp_path)
    out = tmp_path / "nested" / "trace.json"
    write_chrome_trace(str(out), chrome_trace(events))
    loaded = json.loads(out.read_text())
    assert validate_chrome_trace(loaded) == []
    assert loaded["displayTimeUnit"] == "ms"
    with pytest.raises(ValueError):
        write_chrome_trace(str(out), {"traceEvents": "nope"})
