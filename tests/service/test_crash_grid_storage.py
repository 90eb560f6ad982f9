"""Storage-level crash grid: SIGKILL walked across *every* durable
write of a run with journal rotation, compaction, and cache eviction
live — so crashes land mid-evict, mid-compact, and mid-rename, not just
between journal lines.

Unlike the journal-truncation grid in ``test_daemon.py`` (which replays
progressively shorter copies of a finished journal), this grid runs the
service itself against a :class:`ServiceStorage` whose ``crash_after``
counter kills it at op ``k``, then reopens the same root healthy and
drives it to completion.  For every ``k``: same terminal states, same
result bytes, and evicted entries recomputed — never resurrected
corrupt."""

from __future__ import annotations

import pytest

from repro.service import (
    BCService,
    DONE,
    JobSpec,
    TERMINAL_STATES,
    read_journal_chain,
    verify_journal,
)
from repro.service.storage import ServiceStorage, SimulatedCrash
from repro.telemetry import read_events

pytestmark = pytest.mark.service

# Small budgets so the short workload crosses several rotation,
# compaction, and eviction boundaries — the interesting crash sites.
SEGMENT_BYTES = 900
KEEP_TERMINAL = 1
CACHE_BYTES = 6_000


def specs():
    return [JobSpec(job_id=f"j{i:06d}", graph="smallworld",
                    scale_factor=512, strategy="sampling", roots=4,
                    seed=i) for i in range(1, 5)]


def open_service(root, storage=None):
    return BCService(root, storage=storage,
                     journal_max_segment_bytes=SEGMENT_BYTES,
                     journal_keep_terminal=KEEP_TERMINAL,
                     cache_max_bytes=CACHE_BYTES)


def drive(svc):
    for sp in specs():
        svc.submit(sp)
    svc.run_pending()


def harvest(svc):
    states = {j: r.state for j, r in svc.jobs.items()}
    blobs = {}
    for job_id, rec in svc.jobs.items():
        if rec.state == DONE:
            values, meta = svc.result(job_id)
            blobs[job_id] = (rec.result_key, values.tolist(),
                             meta["exact"])
    return states, blobs


def test_crash_grid_over_every_storage_op(tmp_path):
    # Crash-free reference: terminal states, result bytes, and the op
    # count that bounds the grid.
    ref_storage = ServiceStorage()
    with open_service(tmp_path / "ref", ref_storage) as svc:
        drive(svc)
        ref_states, ref_blobs = harvest(svc)
        evicted = [c.value for c in svc.metrics.counters()
                   if c.name == "service.cache.evicted"]
    total_ops = ref_storage.ops
    assert total_ops > 20, "budgets too loose: no boundaries crossed"
    assert sum(evicted) > 0, "cache budget too loose: nothing evicted"
    assert all(s in TERMINAL_STATES for s in ref_states.values())
    assert sum(1 for s in ref_states.values() if s == DONE) == 4

    for k in range(1, total_ops + 1):
        root = tmp_path / f"crash{k}"
        crashed = False
        svc = None
        try:
            # Opening appends the `open` record (and any recovery
            # requeues), so the crash can land inside the constructor.
            svc = open_service(root, ServiceStorage(crash_after=k))
            drive(svc)
            harvest(svc)            # result() reads may recompute/write
            svc.close()
        except SimulatedCrash:
            crashed = True
            if svc is not None:
                svc.abandon()
        # A healthy reopen replays whatever survived; resubmitting the
        # full workload is idempotent (content dedupe) and restores any
        # spec whose submit never reached the disk.
        with open_service(root) as svc2:
            drive(svc2)
            states, blobs = harvest(svc2)
            assert states == ref_states, (k, crashed)
            assert blobs == ref_blobs, (k, crashed)
            # Telemetry exactly-once: the derived stream has one event
            # per journal record on disk, and every DONE job's latency
            # is the sum of its phases.
            records, _ = read_journal_chain(str(root / "journal.jsonl"))
            events, _ = read_events(root)
            assert [e["jseq"] for e in events] == \
                [r["seq"] for r in records], (k, crashed)
            for ev in events:
                if ev["event"] == "done":
                    p = ev["phases"]
                    assert ev["e2e"] == round(
                        p["queued"] + p["backoff"] + p["compute"], 9), \
                        (k, crashed, ev)
        report = verify_journal(str(root / "journal.jsonl"))
        assert report["ok"], (k, report["problems"])
    # the grid must actually have crashed somewhere in the middle
    assert total_ops >= 2


def test_crash_mid_eviction_never_resurrects_corrupt(tmp_path):
    """Kill the process during LRU eviction, then ask for every result:
    each read either hits an intact checksummed blob or recomputes.
    Nothing half-deleted or stale is ever served."""
    root = tmp_path / "svc"
    with open_service(root) as svc:
        drive(svc)
        ref = harvest(svc)[1]
        ops_before = svc.storage.ops

    # Reopen with a storage that dies on its first op, then force an
    # eviction pass: the crash lands inside evict_lru's delete loop.
    svc = open_service(root, ServiceStorage(crash_after=ops_before + 1))
    try:
        drive(svc)                       # replays; may write a little
        svc.cache.evict_lru(want_free=10 ** 9)
        svc.close()
    except SimulatedCrash:
        svc.abandon()

    with open_service(root) as svc2:
        drive(svc2)
        for job_id, (key, values, exact) in ref.items():
            got, meta = svc2.result(job_id)
            assert got.tolist() == values, job_id
            assert meta["exact"] == exact
            assert svc2.cache.verify(key), job_id
