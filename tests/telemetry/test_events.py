"""The repro.events/v1 stream, derived from the journal: one event per
record, deterministic, exactly-once by construction."""

from __future__ import annotations

import os

import pytest

from repro.client import BCClient, InProcessTransport
from repro.observability import MetricsRegistry
from repro.resilience.faults import ActiveFaults, FaultPlan
from repro.service import (
    DONE,
    BCService,
    JobJournal,
    JobSpec,
    read_journal_chain,
    replay_state,
)
from repro.service.storage import ServiceStorage
from repro.telemetry import read_events, trace_id_for

pytestmark = pytest.mark.telemetry


def spec(i=1, **kw):
    kw.setdefault("job_id", f"j{i:06d}")
    kw.setdefault("graph", "smallworld")
    kw.setdefault("scale_factor", 512)
    kw.setdefault("strategy", "sampling")
    kw.setdefault("roots", 4)
    kw.setdefault("seed", i)
    return JobSpec(**kw)


def test_missing_file_is_empty_stream(tmp_path):
    assert read_events(tmp_path / "none") == ([], False)
    assert read_events(tmp_path / "none.jsonl") == ([], False)


# -- trace ids ----------------------------------------------------------
def test_trace_id_pure_function_of_content():
    a = spec(1)
    # Same content under a different job id / tenant: same trace.
    b = spec(1, job_id="other", tenant="acme")
    assert trace_id_for(a) == trace_id_for(b.to_dict())
    assert trace_id_for(a).startswith("tr") and len(trace_id_for(a)) == 18
    assert trace_id_for(spec(2)) != trace_id_for(a)


# -- derivation ---------------------------------------------------------
def chain_records(root, svc):
    """The journal's full history on disk, after checking that ``svc``'s
    job table is that history's replay (the journal keeps no records in
    memory)."""
    records, torn = read_journal_chain(os.path.join(root, "journal.jsonl"))
    assert not torn
    assert ({j: r.state for j, r in svc.jobs.items()}
            == {j: r.state for j, r in replay_state(records).jobs.items()})
    return records


def run_service(root):
    with BCService(root) as svc:
        svc.submit(spec(1))
        svc.submit(spec(2, faults="fail:0@compute+1"))
        svc.run_pending()
    return chain_records(root, svc)


def test_stream_covers_every_journal_record(tmp_path):
    records = run_service(tmp_path / "svc")
    events, torn = read_events(tmp_path / "svc")
    assert not torn
    assert [e["jseq"] for e in events] == [r["seq"] for r in records]
    assert [e["t"] for e in events] == [r["t"] for r in records]
    kinds = [e["event"] for e in events]
    assert kinds[0] == "service-open"
    assert {"submit", "sched.dispatch", "attempt-start", "backoff",
            "done"} <= set(kinds)
    for ev in events:
        if ev["event"] == "done":
            p = ev["phases"]
            assert ev["e2e"] == round(p["queued"] + p["backoff"]
                                      + p["compute"], 9)
    # The retried job's backoff is charged to it, once.
    done2 = next(e for e in events
                 if e["event"] == "done" and e["job_id"] == "j000002")
    backoff = next(e for e in events if e["event"] == "backoff")
    assert done2["phases"]["backoff"] == backoff["delay"] > 0


def test_emit_seq_monotone_across_reopen(tmp_path):
    root = tmp_path / "svc"
    run_service(root)
    with BCService(root) as svc:
        svc.submit(spec(3))
        svc.run_pending()
    events, _ = read_events(root)
    assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
    jseqs = [e["jseq"] for e in events]
    assert jseqs == sorted(set(jseqs))
    assert [e["event"] for e in events].count("service-open") == 2


def test_read_events_drops_torn_tail_keeps_interior(tmp_path):
    path = tmp_path / "journal.jsonl"
    with JobJournal(str(path)) as j:
        j.append("submit", job=spec(1).to_dict(), mode="admit")
        j.append("cancel", job_id="j000001", reason="client cancel")
    line = path.read_text().splitlines(keepends=True)[-1]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line[: len(line) // 2])           # torn mid-write
    events, torn = read_events(path)
    assert torn
    assert [e["event"] for e in events] == ["service-open", "submit",
                                            "cancel"]


def test_torn_tail_truncated_on_reopen(tmp_path):
    root = tmp_path / "svc"
    run_service(root)
    before, _ = read_events(root)
    with open(root / "journal.jsonl", "a", encoding="utf-8") as fh:
        fh.write("deadbeef {\"kind\"")              # torn mid-write
    assert read_events(root) == (before, True)
    BCService(root).close()                         # reopen truncates
    after, torn = read_events(root)
    assert not torn
    assert after[:len(before)] == before
    assert [e["event"] for e in after[len(before):]] == ["service-open"]


#: Journal writes of a fresh one-job run: 0 `open`, 1 `submit`, 2 the
#: `sched` dispatch decision.  x3 strikes that append, its reclaim's
#: compaction and its retry, so it fails for good; nothing else is hit.
SCHED_STRIKE = "enospc:2@journalx3"


def test_enospc_drops_event_and_counts(tmp_path):
    metrics = MetricsRegistry()
    plan = FaultPlan.parse(SCHED_STRIKE)
    root = tmp_path / "svc"
    with BCService(root, metrics=metrics, storage=ServiceStorage(
            faults=ActiveFaults(plan))) as svc:
        svc.submit(spec(1))
        svc.run_pending()
    dropped = [c for c in metrics.counters() if c.name == "telemetry.dropped"]
    assert [(c.labels, c.value) for c in dropped] == \
        [({"kind": "sched"}, 1.0)]
    kinds = [e["event"] for e in read_events(root)[0]]
    assert "sched.dispatch" not in kinds            # the dropped one
    assert "sched.done" in kinds                    # the next one landed
    assert {"submit", "attempt-start", "done"} <= set(kinds)


def test_telemetry_never_fails_the_service(tmp_path):
    # A full disk strikes a scheduler-decision append (through the
    # journal's reclaim and retry); the job must still run to DONE.
    plan = FaultPlan.parse(SCHED_STRIKE)
    svc = BCService(tmp_path / "svc",
                    storage=ServiceStorage(faults=ActiveFaults(plan)))
    svc.submit(spec(1))
    svc.run_pending()
    assert svc.jobs["j000001"].state == DONE
    svc.close()
    with BCService(tmp_path / "svc") as svc2:
        assert svc2.jobs["j000001"].state == DONE
        events, _ = read_events(tmp_path / "svc")
        assert len(events) == len(chain_records(tmp_path / "svc", svc2))


def test_two_identical_runs_are_byte_identical(tmp_path):
    run_service(tmp_path / "a")
    run_service(tmp_path / "b")
    a = (tmp_path / "a" / "journal.jsonl").read_bytes()
    b = (tmp_path / "b" / "journal.jsonl").read_bytes()
    assert a == b and a  # simulated clock only: deterministic journals
    assert read_events(tmp_path / "a") == read_events(tmp_path / "b")


def test_restart_derives_every_record_exactly_once(tmp_path):
    root = tmp_path / "svc"
    run_service(root)
    before, _ = read_events(root)
    with BCService(root) as svc:
        events, _ = read_events(root)
        assert [e["jseq"] for e in events] == \
            [r["seq"] for r in chain_records(root, svc)]
    # The first run's events are an unchanged prefix: nothing re-emitted.
    assert events[:len(before)] == before


class _Counting(ServiceStorage):
    def __init__(self):
        super().__init__()
        self.writes = []          # (file, fsynced)

    def append_line(self, path, text, target="any", sync=True):
        self.writes.append((os.path.basename(path), sync))
        return super().append_line(path, text, target, sync)

    def replace_atomic(self, path, data, target="any"):
        self.writes.append(("cache", True))
        return super().replace_atomic(path, data, target)


def test_one_durable_log(tmp_path, monkeypatch):
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (fsyncs.append(fd), real_fsync(fd)))
    storage = _Counting()
    svc = BCService(tmp_path / "svc", storage=storage)
    client = BCClient(InProcessTransport(svc))
    client.submit(spec(1))
    svc.run_pending()
    n, f = len(storage.writes), len(fsyncs)
    job_id = client.submit(spec(2))
    svc.run_pending()
    client.result(job_id)
    fresh, fresh_fsyncs = storage.writes[n:], len(fsyncs) - f
    n, f = len(storage.writes), len(fsyncs)
    client.result(client.submit(spec(2)))
    repeat, repeat_fsyncs = storage.writes[n:], len(fsyncs) - f
    svc.close()
    j = ("journal.jsonl", True)
    # submit, sched.dispatch, start, sched.done, cache put, done: the
    # two scheduler decisions are narration, written without fsync.
    assert fresh == [j, ("journal.jsonl", False), j,
                     ("journal.jsonl", False), ("cache", True), j]
    assert fresh_fsyncs == 4
    # The dedupe record: one journal write, no fsync.
    assert repeat == [("journal.jsonl", False)] and repeat_fsyncs == 0
    assert sorted(os.listdir(tmp_path / "svc")) == ["journal.jsonl",
                                                    "results", "spool"]
