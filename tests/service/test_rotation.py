"""Journal segment rotation, compaction, terminal-job GC, bounded disk,
and the `journal verify` scan."""

from __future__ import annotations

import pytest

from repro.errors import JournalCorruptionError, StorageFullError
from repro.resilience import ActiveFaults, FaultPlan
from repro.service import (
    DONE,
    JobJournal,
    JobSpec,
    journal_inventory,
    read_journal_chain,
    replay_state,
    verify_journal,
)
from repro.service.storage import ServiceStorage

pytestmark = pytest.mark.service


def spec_dict(i: int) -> dict:
    return JobSpec(job_id=f"j{i:06d}", graph="smallworld",
                   scale_factor=512, roots=4, seed=i).to_dict()


def finish(j: JobJournal, i: int) -> None:
    j.append("submit", job=spec_dict(i))
    j.append("start", job_id=f"j{i:06d}", attempt=1, device="dev0")
    j.append("done", job_id=f"j{i:06d}", result_key="k" * 64, exact=True)


def test_rotation_seals_segments(tmp_path):
    p = str(tmp_path / "journal.jsonl")
    j = JobJournal(p, max_segment_bytes=600, keep_terminal=100)
    for i in range(8):
        finish(j, i)
    inv = journal_inventory(p)
    assert inv["segments"] or inv["compacts"]
    # replay across the chain sees every job, in order, terminal
    records, torn = read_journal_chain(p)
    assert not torn
    state = replay_state(records, p)
    assert len(state.jobs) == 8
    assert all(job.state == DONE for job in state.jobs.values())
    assert not state.illegal_transitions


def test_reopen_across_boundaries_continues_seq(tmp_path):
    p = str(tmp_path / "journal.jsonl")
    j = JobJournal(p, max_segment_bytes=400, keep_terminal=100)
    for i in range(5):
        finish(j, i)
    last = j._seq
    j.close()
    j2 = JobJournal(p, max_segment_bytes=400, keep_terminal=100)
    assert j2._seq >= last
    history = j2.take_history()
    assert len({r["seq"] for r in history}) == len(history)
    finish(j2, 99)
    state = replay_state(read_journal_chain(p)[0], p)
    assert state.jobs["j000099"].state == DONE


def test_gc_drops_old_terminal_jobs_and_bounds_disk(tmp_path):
    p = str(tmp_path / "journal.jsonl")
    j = JobJournal(p, max_segment_bytes=1500, keep_terminal=2)
    sizes = []
    for i in range(40):
        finish(j, i)
        sizes.append(j.total_bytes())
    j.close()
    # the on-disk chain (what the next open replays) has dropped old
    # terminal jobs
    records, _ = read_journal_chain(p)
    state = replay_state(records, p)
    assert "j000039" in state.jobs
    assert "j000000" not in state.jobs
    # disk is bounded: the high-water mark stops growing
    assert max(sizes[20:]) <= max(sizes[:20]) + 1500


def test_compaction_depends_only_on_the_chain_on_disk(tmp_path):
    # j1 is deduped after j2 is done, so only its (slimmed-away)
    # narration makes it newer than j2.  A process that saw that
    # narration and one reopened after it must collect the same job.
    def run(p, reopen):
        j = JobJournal(p, max_segment_bytes=None, keep_terminal=2)
        finish(j, 1)
        finish(j, 2)
        j.append("dedupe", job_id="j000001", by="content", state=DONE)
        j.rotate()
        j.compact()
        if reopen:
            j.close()
            j = JobJournal(p, max_segment_bytes=None, keep_terminal=2)
        finish(j, 3)
        j.rotate()
        j.compact()
        j.close()
        records, _ = read_journal_chain(p)
        return sorted(replay_state(records, p).jobs)

    kept = run(str(tmp_path / "a" / "journal.jsonl"), reopen=False)
    assert kept == run(str(tmp_path / "b" / "journal.jsonl"), reopen=True)
    assert kept == ["j000002", "j000003"]


def test_live_job_survives_every_compaction(tmp_path):
    p = str(tmp_path / "journal.jsonl")
    j = JobJournal(p, max_segment_bytes=800, keep_terminal=0)
    j.append("submit", job=spec_dict(7777))
    j.append("start", job_id="j007777", attempt=1, device="dev0")
    for i in range(30):
        finish(j, i)
    j.compact(keep_terminal=0)
    state = replay_state(read_journal_chain(p)[0], p)
    assert state.jobs["j007777"].state in ("running", "pending")
    assert not state.illegal_transitions


def test_compaction_slims_to_minimal_legal_chain(tmp_path):
    p = str(tmp_path / "journal.jsonl")
    j = JobJournal(p, max_segment_bytes=None, keep_terminal=100)
    # a noisy job: two requeues before done
    j.append("submit", job=spec_dict(1))
    j.append("start", job_id="j000001", attempt=1, device="dev0")
    j.append("requeue", job_id="j000001", reason="fault", delay=0.1)
    j.append("start", job_id="j000001", attempt=2, device="dev1")
    j.append("requeue", job_id="j000001", reason="fault", delay=0.2)
    j.append("start", job_id="j000001", attempt=3, device="dev0")
    j.append("done", job_id="j000001", result_key="k" * 64, exact=True)
    j.rotate()
    stats = j.compact()
    assert stats["dropped"] > 0
    j.close()
    records, _ = read_journal_chain(p)
    kinds = [r["kind"] for r in records if r.get("kind") != "open"]
    assert kinds == ["submit", "start", "done"]
    state = replay_state(records, p)
    assert state.jobs["j000001"].state == DONE
    assert state.jobs["j000001"].attempt == 3
    assert not state.illegal_transitions


def test_deduped_job_compacts_to_its_terminal_record(tmp_path):
    # Narration after `done` must not become the slimmed chain's end:
    # dropping `done` for the `dedupe` would replay the job as RUNNING.
    p = str(tmp_path / "journal.jsonl")
    j = JobJournal(p, max_segment_bytes=None, keep_terminal=1)
    j.append("submit", job=spec_dict(1))
    j.append("sched", decision="dispatch", job_id="j000001", attempt=1,
             device="dev0")
    j.append("start", job_id="j000001", attempt=1, device="dev0")
    j.append("done", job_id="j000001", result_key="k" * 64, exact=True)
    j.append("dedupe", job_id="j000001", by="content", state=DONE)
    j.rotate()
    j.compact(keep_terminal=1)
    j.close()
    records, _ = read_journal_chain(p)
    kinds = [r["kind"] for r in records if r.get("kind") != "open"]
    assert kinds == ["submit", "start", "done"]
    state = replay_state(records, p)
    assert state.jobs["j000001"].state == DONE
    assert not state.illegal_transitions


def test_dedupe_of_collected_job_is_dropped_by_next_compaction(tmp_path):
    # A live process may dedupe onto a job an earlier compaction already
    # collected from disk; the next process sees that narration with no
    # submit, and its compaction drops it.
    p = str(tmp_path / "journal.jsonl")
    j = JobJournal(p, max_segment_bytes=None, keep_terminal=0)
    finish(j, 1)
    j.rotate()
    j.compact(keep_terminal=0)
    j.append("dedupe", job_id="j000001", by="content", state=DONE)
    j.close()
    j2 = JobJournal(p, max_segment_bytes=None, keep_terminal=0)
    j2.rotate()
    j2.compact(keep_terminal=0)
    j2.close()
    records, _ = read_journal_chain(p)
    assert [r["kind"] for r in records if r["kind"] != "open"] == []


def test_resubmitted_shed_job_compacts_to_latest_admission(tmp_path):
    p = str(tmp_path / "journal.jsonl")
    j = JobJournal(p, max_segment_bytes=None, keep_terminal=100)
    j.append("shed", job=spec_dict(1), reason="queue full")
    j.append("submit", job=spec_dict(1))
    j.append("start", job_id="j000001", attempt=1, device="dev0")
    j.append("done", job_id="j000001", result_key="k" * 64, exact=True)
    j.rotate()
    j.compact()
    j.close()
    records, _ = read_journal_chain(p)
    state = replay_state(records, p)
    assert state.jobs["j000001"].state == DONE
    assert not state.illegal_transitions


def test_enospc_on_append_reclaims_then_raises_typed(tmp_path):
    p = str(tmp_path / "journal.jsonl")
    st = ServiceStorage(
        faults=ActiveFaults(FaultPlan.parse("enospc:2@journalx9"), seed=0))
    j = JobJournal(p, storage=st, max_segment_bytes=None, keep_terminal=0)
    j.append("submit", job=spec_dict(1))
    with pytest.raises(StorageFullError) as exc:
        j.append("submit", job=spec_dict(2))
    assert exc.value.attempts == 2
    # the failed append left no half-record behind
    records, torn = read_journal_chain(p)
    assert not torn
    assert [r["kind"] for r in records if r["kind"] != "open"] == ["submit"]


def test_sealed_segment_torn_is_fatal(tmp_path):
    p = str(tmp_path / "journal.jsonl")
    j = JobJournal(p, max_segment_bytes=400, keep_terminal=100)
    for i in range(5):
        finish(j, i)
    j.close()
    inv = journal_inventory(p)
    victim = (inv["compacts"][-1][1] if inv["compacts"]
              else inv["segments"][0][1])
    with open(victim, "ab") as fh:
        fh.write(b'deadbeef {"kind":"done","job_')
    with pytest.raises(JournalCorruptionError):
        JobJournal(p, max_segment_bytes=400, keep_terminal=100)
    report = verify_journal(p)
    assert not report["ok"]
    assert any(r["path"] == victim and r["status"] in ("corrupt",
                                                       "torn-tail")
               for r in report["files"])


def test_active_torn_tail_is_benign_and_classified(tmp_path):
    p = str(tmp_path / "journal.jsonl")
    j = JobJournal(p)
    finish(j, 1)
    j.close()
    with open(p, "ab") as fh:
        fh.write(b'deadbeef {"kind":"done","job_')
    report = verify_journal(p)
    assert report["ok"]             # torn active tail is legal
    active = next(r for r in report["files"] if r["role"] == "active")
    assert active["status"] == "torn-tail"
    j2 = JobJournal(p)
    assert j2.torn_tail_truncated


def test_interior_rot_is_fatal_and_classified(tmp_path):
    p = str(tmp_path / "journal.jsonl")
    j = JobJournal(p)
    for i in range(3):
        finish(j, i)
    j.close()
    with open(p, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"kind"', b'"kinX"', 1)
    with open(p, "wb") as fh:
        fh.writelines(lines)
    report = verify_journal(p)
    assert not report["ok"]
    active = next(r for r in report["files"] if r["role"] == "active")
    assert active["status"] == "corrupt"   # interior, not a torn tail
    with pytest.raises(JournalCorruptionError):
        JobJournal(p)


def test_verify_clean_chain(tmp_path):
    p = str(tmp_path / "journal.jsonl")
    j = JobJournal(p, max_segment_bytes=500, keep_terminal=3)
    for i in range(12):
        finish(j, i)
    j.close()
    report = verify_journal(p)
    assert report["ok"] and not report["problems"]
    assert report["total_records"] == sum(r["records"]
                                          for r in report["files"])
