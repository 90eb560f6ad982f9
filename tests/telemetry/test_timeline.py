"""Timeline reconstruction + the issue's acceptance lifecycle.

The acceptance scenario: a job submitted through :class:`BCClient`
against an overloaded service, with one chaos fault on its first
attempt.  One trace id must thread shed -> client retry -> admit ->
attempt 1 fault -> backoff -> attempt 2 -> done, the timeline must
render it, the Chrome export must validate, and a SIGKILL/restart must
neither drop nor duplicate a lifecycle event of the derived stream."""

from __future__ import annotations

import pytest

from repro.client import BCClient, InProcessTransport
from repro.service import (
    AdmissionPolicy,
    BCService,
    JobSpec,
    read_journal_chain,
    replay_state,
)
from repro.service.storage import ServiceStorage, SimulatedCrash
from repro.telemetry import (
    attempt_rows,
    build_timeline,
    chrome_trace,
    read_events,
    render_timeline,
    trace_id_for,
    validate_chrome_trace,
)

pytestmark = pytest.mark.telemetry


def spec(i=1, **kw):
    kw.setdefault("job_id", f"j{i:06d}")
    kw.setdefault("graph", "smallworld")
    kw.setdefault("scale_factor", 512)
    kw.setdefault("strategy", "sampling")
    kw.setdefault("roots", 4)
    kw.setdefault("seed", i)
    return JobSpec(**kw)


@pytest.fixture
def lifecycle_root(tmp_path):
    """Run the acceptance scenario; returns the service root."""
    root = tmp_path / "svc"
    # max_queue=2 with degrade disabled: two fillers saturate the
    # queue, so the target's first offer is shed (not degraded).
    svc = BCService(root, policy=AdmissionPolicy(max_queue=2,
                                                 degrade_threshold=2))
    svc.submit(spec(8))
    svc.submit(spec(9))
    # The client's backoff sleep drains the daemon queue, so the retry
    # finds room — the in-process analogue of waiting out an overload.
    client = BCClient(InProcessTransport(svc),
                      sleep=lambda d: svc.run_pending())
    target = spec(1, job_id="", faults="fail:0@compute+1",
                  tenant="acme", allow_degrade=False)
    job_id = client.submit(target)
    assert client.report["retries"] >= 1          # it was shed once
    svc.run_pending()
    assert svc.jobs[job_id].state == "done"
    svc.close()
    return root, job_id, trace_id_for(target)


def test_acceptance_single_trace_full_lifecycle(lifecycle_root):
    root, job_id, trace = lifecycle_root
    events, torn = read_events(root)
    assert not torn
    mine = [e for e in events if e.get("trace_id") == trace]
    kinds = [e["event"] for e in mine]
    # One trace id reconstructs the whole story, in order.
    assert [k for k in kinds if not k.startswith("sched.")] == [
        "shed", "submit", "attempt-start", "backoff",
        "attempt-start", "done"]
    assert {e.get("job_id") for e in mine} == {job_id}
    # Attempt 1 failed into a backoff; attempt 2 finished exact.
    backoff = next(e for e in mine if e["event"] == "backoff")
    assert backoff["delay"] > 0
    done = next(e for e in mine if e["event"] == "done")
    assert done["exact"] is True
    assert done["phases"]["backoff"] == pytest.approx(backoff["delay"])
    assert done["e2e"] == pytest.approx(
        done["phases"]["queued"] + done["phases"]["backoff"]
        + done["phases"]["compute"])
    # The scheduler's retry decision rides the same trace.
    assert "sched.retry" in kinds and "sched.attempt-failed" in kinds


def test_acceptance_timeline_renders(lifecycle_root):
    root, job_id, trace = lifecycle_root
    events, _ = read_events(root)
    doc = build_timeline(events, job_id=job_id)
    assert doc["trace_id"] == trace
    assert doc["state"] == "done" and doc["sheds"] == 1
    assert [a["attempt"] for a in doc["attempts"]] == [1, 2]
    assert doc["attempts"][0]["outcome"].startswith("failed")
    assert doc["attempts"][0]["backoff_after"] > 0
    assert doc["attempts"][1]["outcome"].startswith("done")
    lines = render_timeline(doc)
    text = "\n".join(lines)
    assert trace in text and "shed" in text and "backoff" in text
    assert "attempt 2" in text and "e2e" in text
    # Selecting by trace id yields the same document.
    assert build_timeline(events, trace_id=trace)["events"] == doc["events"]


def test_acceptance_chrome_export_validates(lifecycle_root):
    root, job_id, trace = lifecycle_root
    events, _ = read_events(root)
    doc = chrome_trace(events, job_id=job_id)
    assert validate_chrome_trace(doc) == []
    names = [e["name"] for e in doc["traceEvents"]]
    assert "shed" in names and "done" in names
    assert any(n.startswith("backoff") for n in names)
    assert any(n.startswith("attempt 2") for n in names)
    # Exemplars in the embedded SLO report point back at the job.
    groups = doc["otherData"]["slo"]["groups"]
    exemplars = [ex for g in groups
                 for ex in g["histogram"]["exemplars"]]
    assert any(ex["job_id"] == job_id for ex in exemplars)


def test_acceptance_survives_kill_and_restart(lifecycle_root, tmp_path):
    root, job_id, trace = lifecycle_root
    before = [e for e in read_events(root)[0]
              if e.get("trace_id") == trace]
    # SIGKILL model: reopen under a crashing storage, then heal.
    crashed = False
    svc = None
    try:
        svc = BCService(root, storage=ServiceStorage(crash_after=3))
        svc.submit(spec(30))
        svc.run_pending()
        svc.close()
    except SimulatedCrash:
        crashed = True
        if svc is not None:
            svc.abandon()
    assert crashed
    with BCService(root) as svc2:
        events, torn = read_events(root)
        assert not torn
        records, _ = read_journal_chain(root / "journal.jsonl")
        assert [e["jseq"] for e in events] == [r["seq"] for r in records]
        assert ({j: r.state for j, r in svc2.jobs.items()} == {
            j: r.state for j, r in replay_state(records).jobs.items()})
        after = [e for e in events if e.get("trace_id") == trace]
        # The finished trace's lifecycle: no events lost, none doubled.
        assert [(e["event"], e.get("jseq")) for e in after] == \
            [(e["event"], e.get("jseq")) for e in before]


def test_attempt_rows_and_unknown_job(lifecycle_root):
    root, job_id, _ = lifecycle_root
    events, _ = read_events(root)
    rows = attempt_rows(events, job_id)
    assert [r["attempt"] for r in rows] == [1, 2]
    assert rows[0]["backoff_after"] > 0 and rows[1]["compute"] > 0
    assert attempt_rows(events, "ghost") == []
    assert attempt_rows([], job_id) == []
    with pytest.raises(ValueError):
        build_timeline(events, job_id="ghost")
    with pytest.raises(ValueError):
        build_timeline(events)  # neither selector


def test_dedupe_joins_existing_trace(tmp_path):
    with BCService(tmp_path / "svc") as svc:
        sp = spec(1)
        svc.submit(sp)
        svc.submit(spec(1, job_id="", tenant="acme"))  # same content
        svc.run_pending()
        events, _ = read_events(tmp_path / "svc")
    doc = build_timeline(events, job_id=sp.job_id)
    kinds = [e["event"] for e in doc["events"]]
    assert "dedupe" in kinds
    dedupe = next(e for e in doc["events"] if e["event"] == "dedupe")
    assert dedupe["trace_id"] == trace_id_for(sp)
    assert "deduped" in "\n".join(render_timeline(doc))
