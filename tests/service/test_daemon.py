"""BCService end-to-end: crash grid, exactly-once, overload, cancel."""

from __future__ import annotations

import json
import os
import random
import shutil
import struct
from collections import Counter

import numpy as np
import pytest

from repro.errors import (
    JobNotFoundError,
    JobSpecError,
    ServiceOverloadError,
)
from repro.observability import MetricsRegistry
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    SHED,
    TERMINAL_STATES,
    AdmissionPolicy,
    BCService,
    JobSpec,
    Scheduler,
    read_journal,
)


def spec(i=None, **kw):
    kw.setdefault("graph", "smallworld")
    kw.setdefault("scale_factor", 512)
    kw.setdefault("strategy", "sampling")
    kw.setdefault("roots", 4)
    if i is not None:
        kw.setdefault("job_id", f"j{i:06d}")
        kw.setdefault("seed", i)
    return JobSpec(**kw)


def _lines(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return fh.readlines()


def reference_run(root):
    """A crash-free service run over a mixed workload; returns
    ``(terminal states, result bytes per job)``."""
    with BCService(root) as svc:
        svc.submit(spec(1))
        svc.submit(spec(2, strategy="hybrid"))
        svc.submit(spec(3, faults="fail:0@compute+1"))   # retried chaos
        svc.submit(spec(4, deadline_seconds=1e-9))       # degrades
        svc.run_pending()
        states = {j: r.state for j, r in svc.jobs.items()}
        blobs = {}
        for job_id, rec in svc.jobs.items():
            if rec.result_key:
                values, meta = svc.result(job_id)
                blobs[job_id] = (rec.result_key, values.tolist(),
                                 meta["exact"], meta["degraded_reason"])
    return states, blobs


def test_submit_process_result_roundtrip(tmp_path):
    with BCService(tmp_path / "svc") as svc:
        job = svc.submit(spec(1))
        assert job.job_id == "j000001"
        svc.run_pending()
        assert svc.jobs[job.job_id].state == DONE
        values, meta = svc.result(job.job_id)
        assert meta["exact"] is True
        assert values.shape[0] > 0
        with pytest.raises(JobNotFoundError):
            svc.status("ghost")
        # Identical content resubmitted (same id or no id): folded into
        # the existing job — submit idempotency, no second execution.
        again = svc.submit(spec(1))
        assert again is job
        # Same id for *different* content is still an error.
        with pytest.raises(JobSpecError):
            svc.submit(spec(1, seed=999))


def test_crash_recovery_grid_every_truncation_point(tmp_path):
    """SIGKILL at any journal boundary: restart converges to the same
    terminal states, with no job lost, duplicated, or left mid-flight."""
    ref_root = tmp_path / "ref"
    ref_states, ref_blobs = reference_run(ref_root)
    assert ref_states["j000001"] == DONE
    assert ref_states["j000003"] == DONE     # chaos retried to success
    assert ref_states["j000004"] == DONE     # deadline-degraded

    journal_lines = _lines(ref_root / "journal.jsonl")
    submit_line = {}
    for n, line in enumerate(journal_lines, start=1):
        body = json.loads(line.split(" ", 1)[1])
        if body["kind"] == "submit":
            submit_line[body["job"]["job_id"]] = n

    for cut in range(1, len(journal_lines) + 1):
        crash_root = tmp_path / f"crash{cut}"
        os.makedirs(crash_root)
        with open(crash_root / "journal.jsonl", "w",
                  encoding="utf-8") as fh:
            fh.writelines(journal_lines[:cut])
        with BCService(crash_root) as svc:
            svc.run_pending()
            for job_id, line_no in submit_line.items():
                if cut < line_no:
                    assert job_id not in svc.jobs
                    continue
                rec = svc.jobs[job_id]
                assert rec.state in TERMINAL_STATES, (cut, job_id)
                assert rec.state == ref_states[job_id], (cut, job_id)
                if rec.state == DONE:
                    # exactly-once materialisation: the recovered run
                    # lands on the same content-addressed key with the
                    # same values and the same exactness flags (attempt
                    # counts may differ — that's execution history, not
                    # the result).  Read through svc.result(): a `done`
                    # record whose blob is missing at rest must self-heal
                    # to the identical result.
                    values, meta = svc.result(job_id)
                    got = (rec.result_key, values.tolist(),
                           meta["exact"], meta["degraded_reason"])
                    assert got == ref_blobs[job_id], (cut, job_id)


def test_crash_recovery_with_torn_tail(tmp_path):
    ref_root = tmp_path / "ref"
    ref_states, _ = reference_run(ref_root)
    lines = _lines(ref_root / "journal.jsonl")
    crash_root = tmp_path / "crash"
    os.makedirs(crash_root)
    # torn write: half a record after a mid-run boundary
    with open(crash_root / "journal.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(lines[: len(lines) // 2])
        fh.write('abcd1234 {"kind":"done","job_')
    with BCService(crash_root) as svc:
        assert svc.journal.torn_tail_truncated
        svc.run_pending()
        for job_id, rec in svc.jobs.items():
            assert rec.state in TERMINAL_STATES
            assert rec.state == ref_states[job_id]


def test_crash_between_cache_write_and_done_replays_from_cache(tmp_path):
    """The exactly-once window: result materialised, `done` not yet
    durable.  Recovery must acknowledge the cached result, not
    recompute it."""
    ref_root = tmp_path / "ref"
    with BCService(ref_root) as svc:
        svc.submit(spec(1))
        svc.run_pending()
        key = svc.jobs["j000001"].result_key
        with open(svc.cache.path(key), "rb") as fh:
            ref_blob = fh.read()

    crash_root = tmp_path / "crash"
    os.makedirs(crash_root)
    kept = [ln for ln in _lines(ref_root / "journal.jsonl")
            if json.loads(ln.split(" ", 1)[1])["kind"] != "done"]
    with open(crash_root / "journal.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(kept)
    shutil.copytree(ref_root / "results", crash_root / "results")

    metrics = MetricsRegistry()
    with BCService(crash_root, metrics=metrics) as svc:
        assert svc.recovered_ids == ["j000001"]
        decisions = []
        svc.scheduler.on_decision = decisions.append
        svc.run_pending()
        rec = svc.jobs["j000001"]
        assert rec.state == DONE and rec.result_key == key
        with open(svc.cache.path(key), "rb") as fh:
            assert fh.read() == ref_blob
        replayed = [c for c in metrics.counters()
                    if c.name == "service.cache.replayed"]
        assert replayed and replayed[0].value == 1
        # the scheduler never ran the job again
        assert decisions == []


def test_result_self_heals_corrupt_cache_entry(tmp_path):
    with BCService(tmp_path / "svc") as svc:
        job = svc.submit(spec(1))
        svc.run_pending()
        ref_values, _ = svc.result(job.job_id)
        path = svc.cache.path(svc.jobs[job.job_id].result_key)
        with open(path, "rb") as fh:
            data = fh.read()
        at = data.index(b"\n") + 1      # the first stored value
        with open(path, "wb") as fh:
            fh.write(data[:at] + struct.pack("<d", 1e9) + data[at + 8:])
        healed, meta = svc.result(job.job_id)
        np.testing.assert_array_equal(healed, ref_values)
        assert svc.cache.verify(svc.jobs[job.job_id].result_key)


def test_overload_sheds_typed_and_degrades_flagged(tmp_path):
    policy = AdmissionPolicy(max_queue=3, degrade_threshold=1,
                             tenant_quota=10)
    with BCService(tmp_path / "svc", policy=policy) as svc:
        first = svc.submit(spec(1))           # depth 0 -> exact
        assert not first.admit_degraded
        second = svc.submit(spec(2))          # depth 1 -> overload mode
        third = svc.submit(spec(3))
        assert second.admit_degraded and third.admit_degraded
        with pytest.raises(ServiceOverloadError) as exc:
            svc.submit(spec(4))               # depth 3 == max_queue
        assert exc.value.limit == 3
        assert svc.jobs["j000004"].state == SHED

        svc.run_pending()
        assert svc.jobs["j000001"].exact is True
        for j in ("j000002", "j000003"):
            rec = svc.jobs[j]
            assert rec.state == DONE
            assert rec.exact is False            # never silently exact
            assert rec.degraded_reason == "overload"
        # shed state survives restart
    with BCService(tmp_path / "svc", policy=policy) as svc2:
        assert svc2.jobs["j000004"].state == SHED


def test_tenant_quota_shed(tmp_path):
    policy = AdmissionPolicy(max_queue=50, tenant_quota=2)
    with BCService(tmp_path / "svc", policy=policy) as svc:
        svc.submit(spec(1, tenant="acme"))
        svc.submit(spec(2, tenant="acme"))
        with pytest.raises(ServiceOverloadError):
            svc.submit(spec(3, tenant="acme"))
        # other tenants are unaffected
        svc.submit(spec(4, tenant="other"))


def test_cancel_pending_only(tmp_path):
    with BCService(tmp_path / "svc") as svc:
        job = svc.submit(spec(1))
        assert svc.cancel(job.job_id) is True
        assert svc.jobs[job.job_id].state == "cancelled"
        svc.run_pending()
        assert svc.jobs[job.job_id].state == "cancelled"
        done = svc.submit(spec(2))
        svc.run_pending()
        assert svc.cancel(done.job_id) is False  # already terminal


def test_deadline_strict_job_fails_typed(tmp_path):
    with BCService(tmp_path / "svc") as svc:
        job = svc.submit(spec(1, deadline_seconds=1e-9,
                              allow_degrade=False))
        svc.run_pending()
        rec = svc.jobs[job.job_id]
        assert rec.state == FAILED
        assert "deadline" in rec.error


def test_breaker_quarantine_survives_restart(tmp_path):
    sched = lambda m=None: Scheduler(max_retries=0, metrics=m)  # noqa: E731
    from repro.service import CircuitBreaker

    def mk(metrics=None):
        s = Scheduler(max_retries=0,
                      breaker=CircuitBreaker(threshold=2, cooldown=100))
        return s

    root = tmp_path / "svc"
    with BCService(root, scheduler=mk()) as svc:
        for i in (1, 2):
            svc.submit(spec(i, faults="oom:0x5"))
        svc.run_pending()
        assert all(svc.jobs[f"j{i:06d}"].state == FAILED for i in (1, 2))
    with BCService(root, scheduler=mk()) as svc2:
        job = svc2.submit(spec(3))
        svc2.run_pending()
        rec = svc2.jobs[job.job_id]
        assert rec.state == FAILED and "circuit open" in rec.error


def test_spool_submit_and_cancel(tmp_path):
    root = tmp_path / "svc"
    with BCService(root) as svc:
        ticket = {"op": "submit", "job": spec(job_id="sp1").to_dict()}
        with open(os.path.join(svc.spool_dir, "a.json"), "w") as fh:
            json.dump(ticket, fh)
        assert svc.poll_spool() == 1
        assert "sp1" in svc.jobs
        with open(os.path.join(svc.spool_dir, "b.json"), "w") as fh:
            json.dump({"op": "cancel", "job_id": "sp1"}, fh)
        svc.poll_spool()
        assert svc.jobs["sp1"].state == "cancelled"
        assert os.listdir(svc.spool_dir) == []


def test_cli_cancel_after_submit_is_taken_after_it(tmp_path, monkeypatch,
                                                   capsys):
    # Ticket names must sort in write order even when their random part
    # does not: here the cancel's uuid sorts before the submit's.
    import uuid

    from repro.cli import main

    ids = iter([uuid.UUID(int=2 ** 127), uuid.UUID(int=1)])
    monkeypatch.setattr(uuid, "uuid4", lambda: next(ids))
    root = str(tmp_path / "svc")
    assert main(["service", "submit", "--root", root, "--job-id", "j1",
                 "--scale-factor", "256", "--roots", "4"]) == 0
    assert main(["service", "cancel", "j1", "--root", root]) == 0
    capsys.readouterr()
    with BCService(root) as svc:
        assert svc.poll_spool() == 2
        assert svc.jobs["j1"].state == CANCELLED


def test_spool_crash_debris_is_cleaned(tmp_path):
    root = tmp_path / "svc"
    BCService(root).close()
    spool = root / "spool"
    # A writer killed before its rename, and a ticket rotted to bad UTF-8.
    (spool / "t1.json.tmp").write_text('{"op": "sub')
    (spool / "t2.json").write_bytes(b'{"op": "submit", "job": "\xe2"}')
    with BCService(root) as svc:
        assert os.listdir(spool) == ["t2.json"]
        assert svc.poll_spool() == 0
        assert os.listdir(spool) == [] and svc.spool_bytes() == 0


def test_journal_is_single_source_of_truth_for_status(tmp_path):
    root = tmp_path / "svc"
    with BCService(root) as svc:
        svc.submit(spec(1))
        svc.run_pending()
        rows = svc.status()
    # offline read of the same journal reconstructs the same view
    from repro.service import replay_state

    records, torn = read_journal(root / "journal.jsonl")
    assert not torn
    offline = replay_state(records, str(root / "journal.jsonl"))
    assert offline.jobs["j000001"].status_dict() == rows[0]


def test_tenant_live_counts_match_a_scan_at_every_step(tmp_path):
    """Admission's per-tenant live (pending + running) counts equal a
    scan of every job before each journal append and after each step of
    a seeded mixed run: sheds, cancels, a failing fault plan with its
    retries, and a restart that recovers a job killed while running."""
    policy = AdmissionPolicy(max_queue=4, degrade_threshold=3,
                             tenant_quota=2)
    tenants = ("acme", "beta", "gamma")
    seen = {"checks": 0, "shed": 0, "cancel": 0, "failed": 0}

    def check(svc):
        scan = Counter(j.spec.tenant for j in svc.jobs.values()
                       if j.state in (PENDING, RUNNING))
        assert {t: svc._tenant_live(t) for t in tenants} == \
            {t: scan[t] for t in tenants}
        seen["checks"] += 1

    def watched(svc):
        append = svc.journal.append

        def checked_append(kind, **fields):
            check(svc)
            return append(kind, **fields)

        svc.journal.append = checked_append
        check(svc)
        return svc

    def steps(svc, rng, n):
        for _ in range(n):
            op = rng.random()
            if op < 0.55:
                failing = rng.random() < 0.25
                try:
                    svc.submit(spec(seed=rng.randint(0, 10 ** 6),
                                    tenant=rng.choice(tenants),
                                    allow_degrade=not failing,
                                    faults="oom:0x9" if failing else ""))
                except ServiceOverloadError:
                    seen["shed"] += 1
            elif op < 0.7:
                pending = sorted(j for j, r in svc.jobs.items()
                                 if r.state == PENDING)
                if pending and svc.cancel(rng.choice(pending)):
                    seen["cancel"] += 1
            else:
                svc.process_next()
            check(svc)

    rng = random.Random(3)
    root = tmp_path / "svc"
    svc = watched(BCService(root, policy=policy))
    steps(svc, rng, 30)
    # Die right after a job's `start` record lands: it is running.
    job = next(r for r in svc.jobs.values() if r.state == PENDING)
    svc.journal.append("start", job_id=job.job_id, attempt=1, device="d0")
    svc.abandon()

    svc = watched(BCService(root, policy=policy))
    assert job.job_id in svc.recovered_ids
    steps(svc, rng, 30)
    svc.run_pending()
    check(svc)
    seen["failed"] = sum(r.state == FAILED for r in svc.jobs.values())
    svc.close()
    assert all(svc._tenant_live(t) == 0 for t in tenants)
    assert seen["shed"] and seen["cancel"] and seen["failed"], seen
    assert seen["checks"] > 100
