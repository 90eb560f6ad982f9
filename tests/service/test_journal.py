"""Journal format, torn-tail semantics, and the crash-replay grid."""

from __future__ import annotations

import os

import pytest

from repro.errors import JournalCorruptionError
from repro.service import (
    DONE,
    PENDING,
    BCService,
    JobJournal,
    JobSpec,
    decode_line,
    encode_record,
    read_journal,
    replay_state,
    verify_journal,
)
from repro.service.storage import ServiceStorage


def spec(i=1, **kw):
    kw.setdefault("graph", "smallworld")
    kw.setdefault("scale_factor", 64)
    kw.setdefault("roots", 2)
    return JobSpec(job_id=f"j{i:06d}", **kw)


def test_encode_decode_roundtrip():
    rec = {"kind": "submit", "seq": 3, "job": spec().to_dict()}
    assert decode_line(encode_record(rec)) == rec


def test_decode_rejects_bad_checksum_framing_and_json():
    line = encode_record({"kind": "open", "seq": 1})
    flipped = ("0" if line[0] != "0" else "1") + line[1:]
    with pytest.raises(ValueError, match="checksum"):
        decode_line(flipped)
    with pytest.raises(ValueError, match="torn"):
        decode_line(line[:-1])  # no trailing newline
    with pytest.raises(ValueError, match="framing"):
        decode_line("zz\n")


def test_append_is_durable_and_seq_monotonic(tmp_path):
    path = tmp_path / "j.jsonl"
    with JobJournal(path) as j:
        j.append("submit", job=spec().to_dict())
        j.append("start", job_id="j000001", attempt=1, device="dev0")
    records, torn = read_journal(path)
    assert not torn
    kinds = [r["kind"] for r in records]
    assert kinds == ["open", "submit", "start"]
    seqs = [r["seq"] for r in records]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_reopen_continues_sequence(tmp_path):
    path = tmp_path / "j.jsonl"
    with JobJournal(path) as j:
        last = j.append("submit", job=spec().to_dict())["seq"]
    with JobJournal(path):
        records, _ = read_journal(path)
        assert records[-1]["kind"] == "open"
        assert records[-1]["seq"] > last


def test_torn_tail_is_dropped_and_truncated(tmp_path):
    path = tmp_path / "j.jsonl"
    with JobJournal(path) as j:
        j.append("submit", job=spec().to_dict())
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('deadbeef {"kind":"done","seq"')  # SIGKILL mid-write
    records, torn = read_journal(path)
    assert torn and [r["kind"] for r in records] == ["open", "submit"]
    # Reopening truncates the torn line and keeps appending cleanly.
    with JobJournal(path) as j2:
        assert j2.torn_tail_truncated
    records2, torn2 = read_journal(path)
    assert not torn2
    assert [r["kind"] for r in records2] == ["open", "submit", "open"]


def test_interior_corruption_raises(tmp_path):
    path = tmp_path / "j.jsonl"
    with JobJournal(path) as j:
        j.append("submit", job=spec().to_dict())
        j.append("start", job_id="j000001", attempt=1, device="dev0")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[1] = "00000000 " + lines[1][9:]  # corrupt a non-tail record
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    with pytest.raises(JournalCorruptionError) as exc:
        read_journal(path)
    assert exc.value.line_no == 2


def test_replay_requeues_running_jobs_with_attempts():
    s = spec()
    records = [
        {"kind": "open", "seq": 1},
        {"kind": "submit", "seq": 2, "job": s.to_dict()},
        {"kind": "start", "seq": 3, "job_id": s.job_id, "attempt": 1,
         "device": "dev0"},
        {"kind": "requeue", "seq": 4, "job_id": s.job_id, "attempt": 1,
         "delay": 0.03, "reason": "RankFailure"},
        {"kind": "start", "seq": 5, "job_id": s.job_id, "attempt": 2,
         "device": "dev1"},
    ]
    state = replay_state(records)
    job = state.jobs[s.job_id]
    assert job.state == PENDING and job.recovered
    assert job.attempt == 2  # retry budget is resumed, not reset
    assert state.interrupted == [s.job_id]
    assert state.pending_ids() == [s.job_id]
    assert job.backoff_delays == [0.03]


def test_replay_every_truncation_point_never_loses_or_duplicates(tmp_path):
    """The crash grid: replaying any journal prefix yields a state from
    which every submitted job is either recoverable (pending/running->
    pending) or already terminal — never absent, never duplicated."""
    s1, s2 = spec(1), spec(2, seed=5)
    full = [
        {"kind": "open", "seq": 1},
        {"kind": "submit", "seq": 2, "job": s1.to_dict()},
        {"kind": "submit", "seq": 3, "job": s2.to_dict()},
        {"kind": "start", "seq": 4, "job_id": s1.job_id, "attempt": 1,
         "device": "dev0"},
        {"kind": "done", "seq": 5, "job_id": s1.job_id, "result_key": "k1",
         "exact": True, "sim_seconds": 0.1, "device": "dev0"},
        {"kind": "start", "seq": 6, "job_id": s2.job_id, "attempt": 1,
         "device": "dev1"},
        {"kind": "requeue", "seq": 7, "job_id": s2.job_id, "attempt": 1,
         "delay": 0.05, "reason": "oom"},
        {"kind": "start", "seq": 8, "job_id": s2.job_id, "attempt": 2,
         "device": "dev1"},
        {"kind": "done", "seq": 9, "job_id": s2.job_id, "result_key": "k2",
         "exact": True, "sim_seconds": 0.2, "device": "dev1"},
    ]
    submitted_at = {s1.job_id: 2, s2.job_id: 3}
    for cut in range(len(full) + 1):
        state = replay_state(full[:cut])
        seen = set()
        for job_id, at in submitted_at.items():
            if cut >= at:
                assert job_id in state.jobs, (cut, job_id)
                assert job_id not in seen
                seen.add(job_id)
                job = state.jobs[job_id]
                # never an un-runnable limbo state
                assert job.state in (PENDING, DONE)
            else:
                assert job_id not in state.jobs
        assert not state.illegal_transitions


def test_replay_rejects_record_for_unknown_job():
    records = [{"kind": "start", "seq": 1, "job_id": "ghost", "attempt": 1,
                "device": "dev0"}]
    with pytest.raises(JournalCorruptionError):
        replay_state(records)


def test_breaker_records_survive_replay():
    records = [
        {"kind": "breaker", "seq": 1, "graph_key": "abc", "strategy":
         "sampling", "state": "open", "failures": 3},
        {"kind": "breaker", "seq": 2, "graph_key": "abc", "strategy":
         "sampling", "state": "half-open", "failures": 3},
    ]
    state = replay_state(records)
    assert state.breakers[("abc", "sampling")]["state"] == "half-open"


def test_torn_tail_after_every_record_boundary(tmp_path):
    """Appending garbage after any durable prefix still reads back the
    full prefix (torn tail drops exactly the unacknowledged bytes)."""
    path = tmp_path / "j.jsonl"
    s = spec()
    with JobJournal(path) as j:
        j.append("submit", job=s.to_dict())
        j.append("start", job_id=s.job_id, attempt=1, device="dev0")
        j.append("done", job_id=s.job_id, result_key="k", exact=True,
                 sim_seconds=0.1, device="dev0")
    with open(path, "rb") as fh:
        whole = fh.read()
    lines = whole.decode("utf-8").splitlines(keepends=True)
    for n in range(1, len(lines) + 1):
        prefix = "".join(lines[:n])
        for garbage in ("", '1234 {"kind":', "xx"):
            p = tmp_path / f"cut{n}_{len(garbage)}.jsonl"
            p.write_text(prefix + garbage, encoding="utf-8")
            records, torn = read_journal(p)
            assert len(records) == n
            assert torn == bool(garbage)
            replay_state(records)  # never raises on a clean prefix


# -- narration: written, fsynced by the next state record ----------------
class _SyncSpy(ServiceStorage):
    """Logs fsynced-or-not appends, bare syncs and renames, in order."""

    def __init__(self):
        super().__init__()
        self.log = []

    def append_line(self, path, text, target="any", sync=True):
        self.log.append(("append", os.path.basename(path), sync))
        return super().append_line(path, text, target, sync)

    def sync(self, path):
        self.log.append(("sync", os.path.basename(path)))
        return super().sync(path)

    def rename(self, src, dst, target="any"):
        self.log.append(("rename", os.path.basename(src)))
        return super().rename(src, dst, target)


def test_rotate_fsyncs_before_sealing(tmp_path):
    spy = _SyncSpy()
    path = tmp_path / "j.jsonl"
    j = JobJournal(path, storage=spy)
    j.append("submit", job=spec().to_dict())
    j.append("dedupe", job_id="j000001", by="job-id", state=PENDING)
    del spy.log[:]
    sealed = j.rotate()
    assert spy.log == [("sync", "j.jsonl"), ("rename", "j.jsonl")]
    assert [r["kind"] for r in read_journal(sealed)[0]] == \
        ["open", "submit", "dedupe"]
    # After a rotation there is no active file to fsync at close.
    j.close()
    assert spy.log == [("sync", "j.jsonl"), ("rename", "j.jsonl")]


def test_close_fsyncs_once(tmp_path):
    spy = _SyncSpy()
    j = JobJournal(tmp_path / "a.jsonl", storage=spy)
    j.append("submit", job=spec().to_dict())
    j.append("sched", job_id="j000001", decision="dispatch")
    j.close()
    j.close()
    assert [e for e in spy.log if e[0] == "sync"] == [("sync", "a.jsonl")]
    assert spy.log[-2:] == [("append", "a.jsonl", False),
                            ("sync", "a.jsonl")]


def test_abandon_does_not_fsync(tmp_path):
    spy = _SyncSpy()
    svc = BCService(tmp_path / "svc", storage=spy)
    svc.submit(spec(1))
    svc.submit(spec(1))                       # a dedupe: narration last
    assert spy.log[-1] == ("append", "journal.jsonl", False)
    svc.abandon()
    svc.close()
    assert [e for e in spy.log if e[0] == "sync"] == []
    # SIGKILL does not lose the unsynced line: it is in the file.
    records, torn = read_journal(tmp_path / "svc" / "journal.jsonl")
    assert not torn and records[-1]["kind"] == "dedupe"


def kept_collections(journal) -> list:
    """Names of the journal's non-empty list and dict attributes: the
    records it would be keeping in memory."""
    return [name for name, value in vars(journal).items()
            if isinstance(value, (list, dict)) and value]


def test_repeat_reads_keep_no_record_in_memory(tmp_path):
    with BCService(tmp_path / "svc") as svc:
        job = svc.submit(spec(1))
        svc.run_pending()
        for _ in range(1000):
            assert svc.submit(spec(1)) is job
            svc.result(job.job_id)
        assert kept_collections(svc.journal) == []
    records, _ = read_journal(tmp_path / "svc" / "journal.jsonl")
    assert [r["kind"] for r in records].count("dedupe") == 1000


def _hole_then(path, last_kind, fill):
    """A journal whose first ``dedupe`` line and half the next are
    overwritten with ``fill`` (writeback skipped a page), followed by one
    intact ``dedupe`` and a ``last_kind`` record."""
    with JobJournal(path) as j:
        j.append("submit", job=spec().to_dict())
        for _ in range(3):
            j.append("dedupe", job_id="j000001", by="job-id", state=PENDING)
        if last_kind == "cancel":
            j.append("cancel", job_id="j000001", reason="client cancel")
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.splitlines(keepends=True)
    start = len(lines[0]) + len(lines[1])
    end = start + len(lines[2]) + len(lines[3]) // 2
    with open(path, "wb") as fh:
        fh.write(data[:start] + fill * (end - start) + data[end:])


@pytest.mark.parametrize("fill", [b"\0", b"\xff"], ids=["zeros", "stale"])
def test_hole_before_only_narration_is_a_torn_tail(tmp_path, fill):
    path = tmp_path / "j.jsonl"
    _hole_then(path, "dedupe", fill)
    records, torn = read_journal(path)
    assert torn and [r["kind"] for r in records] == ["open", "submit"]
    report = verify_journal(path)
    assert report["ok"] and report["files"][-1]["status"] == "torn-tail"
    with JobJournal(path) as j:
        assert j.torn_tail_truncated
    assert [r["kind"] for r in read_journal(path)[0]] == \
        ["open", "submit", "open"]


@pytest.mark.parametrize("fill", [b"\0", b"\xff"], ids=["zeros", "stale"])
def test_hole_before_a_state_record_is_corruption(tmp_path, fill):
    # The state record's fsync covered the hole: damage at rest.
    path = tmp_path / "j.jsonl"
    _hole_then(path, "cancel", fill)
    with pytest.raises(JournalCorruptionError) as exc:
        read_journal(path)
    assert exc.value.line_no == 3
    report = verify_journal(path)
    assert not report["ok"] and report["files"][-1]["status"] == "corrupt"
    with pytest.raises(JournalCorruptionError):
        JobJournal(path)
