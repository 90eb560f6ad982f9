"""Result-cache LRU eviction under a byte budget: pins, recency,
ENOSPC reclaim, restart rebuild, and recompute-not-resurrect."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import StorageFullError
from repro.observability import MetricsRegistry
from repro.resilience import ActiveFaults, FaultPlan
from repro.service import BCService, JobSpec, ResultCache
from repro.service.storage import ServiceStorage

pytestmark = pytest.mark.service


def put(cache, key_char, n=200):
    key = key_char * 64
    cache.put(key, np.arange(n, dtype=np.float64), {"job_id": key_char})
    return key


def entry_bytes(tmp_path) -> int:
    """Measured size of one standard test entry (sizes the budgets)."""
    probe = ResultCache(tmp_path / "probe")
    path = probe.path(put(probe, "p"))
    return os.path.getsize(path)


def test_budget_evicts_lru_only(tmp_path):
    budget = int(entry_bytes(tmp_path) * 3.5)    # room for 3 entries
    cache = ResultCache(tmp_path / "c", max_bytes=budget)
    keys = [put(cache, c) for c in "abcdef"]
    assert 0 < cache.total_bytes <= budget
    # the newest entries survive, the oldest are gone
    assert keys[-1] in cache and keys[-2] in cache
    assert keys[0] not in cache
    assert not os.path.exists(cache.path(keys[0]))


def test_get_refreshes_recency(tmp_path):
    budget = int(entry_bytes(tmp_path) * 4.5)    # room for 4 entries
    cache = ResultCache(tmp_path / "c", max_bytes=budget)
    a = put(cache, "a")
    for c in "bcd":
        put(cache, c)
    assert cache.get(a) is not None      # a becomes most-recent
    for c in "efg":
        put(cache, c)
    assert a in cache                    # survived: it was touched
    assert "b" * 64 not in cache         # b was the stale one


def test_pinned_entries_never_evicted(tmp_path):
    budget = int(entry_bytes(tmp_path) * 3.5)
    cache = ResultCache(tmp_path / "c", max_bytes=budget)
    a = put(cache, "a")
    cache.pin(a)
    for c in "bcdefgh":
        put(cache, c)
    assert a in cache
    assert cache.get(a) is not None
    cache.unpin(a)
    for c in "ijkl":
        put(cache, c)
    assert a not in cache                # unpinned → fair game


def test_enospc_put_evicts_and_retries(tmp_path):
    st = ServiceStorage(
        faults=ActiveFaults(FaultPlan.parse("enospc:3@cache"), seed=0))
    metrics = MetricsRegistry()
    cache = ResultCache(tmp_path / "c", metrics=metrics, storage=st,
                        max_bytes=None)
    for c in "abc":
        put(cache, c)
    d = put(cache, "d")                  # hits injected ENOSPC, reclaims
    assert cache.get(d) is not None
    evicted = [c for c in metrics.counters()
               if c.name == "service.cache.evicted"]
    assert evicted and evicted[0].value >= 1


def test_enospc_put_exhausted_raises_typed(tmp_path):
    st = ServiceStorage(
        faults=ActiveFaults(FaultPlan.parse("enospc:0@cachex9"), seed=0))
    cache = ResultCache(tmp_path / "c", storage=st)
    with pytest.raises(StorageFullError) as exc:
        put(cache, "a")
    assert exc.value.attempts == 2


def test_restart_rebuilds_sizes_and_recency(tmp_path):
    cache = ResultCache(tmp_path / "c", max_bytes=50_000)
    for c in "abc":
        put(cache, c)
    sizes = dict(cache._sizes)
    again = ResultCache(tmp_path / "c", max_bytes=50_000)
    assert dict(again._sizes) == sizes
    assert again.total_bytes == cache.total_bytes


def test_evicted_result_is_recomputed_not_resurrected(tmp_path):
    """End-to-end: evict a DONE job's blob under budget pressure, then
    `result()` — the daemon must recompute identical values from the
    journal, never serve (or trust) stale/corrupt bytes."""
    with BCService(tmp_path / "svc", cache_max_bytes=None) as svc:
        job = svc.submit(JobSpec(graph="smallworld", scale_factor=512,
                                 strategy="sampling", roots=4, seed=1))
        svc.run_pending()
        key = svc.jobs[job.job_id].result_key
        ref_values, ref_meta = svc.result(job.job_id)
        # simulate budget eviction: the blob is deleted, not corrupted
        svc.cache.evict_lru(want_free=10 ** 9)
        assert key not in svc.cache
        values, meta = svc.result(job.job_id)
        np.testing.assert_array_equal(values, ref_values)
        assert meta["exact"] == ref_meta["exact"]
        assert svc.cache.verify(key)     # re-materialised and intact


def test_service_respects_cache_budget(tmp_path):
    def job(seed):
        return JobSpec(graph="smallworld", scale_factor=512,
                       strategy="sampling", roots=4, seed=seed)

    with BCService(tmp_path / "probe") as probe:
        probe.submit(job(0))
        probe.run_pending()
        budget = int(probe.cache.total_bytes * 3.5)  # room for 3 results
    metrics = MetricsRegistry()
    with BCService(tmp_path / "svc", metrics=metrics,
                   cache_max_bytes=budget) as svc:
        for i in range(6):
            svc.submit(job(i))
            svc.run_pending()
        assert svc.cache.total_bytes <= budget
        assert sum(c.value for c in metrics.counters()
                   if c.name == "service.cache.evicted") > 0
        # every DONE job still answers result() (recompute on miss)
        for job_id, rec in svc.jobs.items():
            values, _ = svc.result(job_id)
            assert values.size > 0


def test_storage_full_strikes_end_with_their_job(tmp_path):
    """A storage-full strike count lives only while its job does: jobs
    that finish after a strike keep none, and a job that failed on its
    fourth strike and is resubmitted starts from zero strikes (one
    ENOSPC put later it requeues and finishes instead of failing)."""
    def job(seed, **kw):
        return JobSpec(graph="smallworld", scale_factor=1024,
                       strategy="sampling", roots=4, seed=seed, **kw)

    st = ServiceStorage(
        faults=ActiveFaults(FaultPlan.parse("enospc:0@cachex2"), seed=0))
    with BCService(tmp_path / "a", storage=st) as svc:
        ids = [svc.submit(job(i)).job_id for i in range(3)]
        svc.run_pending()
        assert [svc.jobs[j].state for j in ids] == ["done"] * 3
        assert svc._storage_requeues == {}

    # Each exhausted put takes 2 firings: 8 fail the job on its 4th
    # strike, the last 2 strike its resubmit once.
    st = ServiceStorage(
        faults=ActiveFaults(FaultPlan.parse("enospc:0@cachex10"), seed=0))
    with BCService(tmp_path / "b", storage=st) as svc:
        first = svc.submit(job(0))
        svc.run_pending()
        assert svc.jobs[first.job_id].state == "failed"
        assert svc._storage_requeues == {}
        svc.submit(job(0, job_id=first.job_id))
        svc.run_pending()
        assert svc.jobs[first.job_id].state == "done"
        assert svc._storage_requeues == {}
