"""Fault-hardened scheduler: retries, breaker, deadlines, stragglers."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.graph.generators import make_dataset
from repro.observability import MetricsRegistry
from repro.service import (
    CircuitBreaker,
    JobSpec,
    Scheduler,
    SimDevice,
    backoff_delay,
    sample_roots,
)

GRAPH = make_dataset("smallworld", scale_factor=512, seed=0)


def spec(i=1, **kw):
    kw.setdefault("graph", "smallworld")
    kw.setdefault("scale_factor", 512)
    kw.setdefault("strategy", "sampling")
    kw.setdefault("roots", 4)
    return JobSpec(job_id=f"j{i:06d}", **kw)


def execute(sched: Scheduler, job: JobSpec, **kw):
    """``sched.execute`` of ``job`` on the roots the daemon draws for it."""
    return sched.execute(job, GRAPH, sample_roots(GRAPH, job), **kw)


def collect_decisions(sched: Scheduler) -> list:
    """The decisions ``sched`` makes from now on, in order (collected
    through its ``on_decision`` hook)."""
    decisions = []
    sched.on_decision = decisions.append
    return decisions


def run_decision_trace(seed: int, faults: str, *, max_retries: int = 3):
    """One scheduler execution's (decision log, backoff delays) — the
    determinism artefact the property suite replays byte-for-byte."""
    sched = Scheduler(seed=seed, max_retries=max_retries)
    decisions = collect_decisions(sched)
    outcome = execute(sched, spec(seed=seed, faults=faults))
    return (json.dumps(decisions, sort_keys=True),
            list(outcome.backoff_delays), outcome)


# -- backoff ----------------------------------------------------------
def test_backoff_is_deterministic_and_jittered():
    a = [backoff_delay(k, seed=1, token="j1") for k in (1, 2, 3, 4)]
    b = [backoff_delay(k, seed=1, token="j1") for k in (1, 2, 3, 4)]
    assert a == b
    assert a != [backoff_delay(k, seed=2, token="j1") for k in (1, 2, 3, 4)]
    assert a != [backoff_delay(k, seed=1, token="j2") for k in (1, 2, 3, 4)]
    for k, d in enumerate(a, start=1):
        raw = min(2.0, 0.05 * 2 ** (k - 1))
        assert raw / 2 <= d < raw
    with pytest.raises(ValueError):
        backoff_delay(0)


# -- retries and chaos ------------------------------------------------
def test_clean_job_runs_exactly_once():
    sched = Scheduler()
    out = execute(sched, spec())
    assert out.ok and out.exact and out.attempts == 1
    assert out.degraded_reason is None and not out.backoff_delays
    assert out.values.shape == (GRAPH.num_vertices,)


def test_transient_faults_retry_to_success():
    sched = Scheduler(max_retries=3)
    out = execute(sched, spec(faults="fail:0@compute+1;oom:0x1"))
    assert out.ok and out.exact
    assert out.attempts == 3  # fail-stop, oom, then clean
    assert len(out.backoff_delays) == 2
    clean = execute(Scheduler(), spec())
    np.testing.assert_allclose(out.values, clean.values)


def test_retries_exhausted_fails_with_typed_kind():
    sched = Scheduler(max_retries=1)
    out = execute(sched, spec(faults="oom:0x5"))
    assert not out.ok
    assert out.error_kind == "retries-exhausted"
    assert out.attempts == 2


def test_sdc_detected_and_retried():
    sched = Scheduler(max_retries=2)
    out = execute(sched, spec(faults="sdc:0@delta"))
    assert out.ok and out.exact
    assert out.attempts == 2  # corrupt attempt detected, clean retry
    clean = execute(Scheduler(), spec())
    np.testing.assert_allclose(out.values, clean.values)


# -- circuit breaker --------------------------------------------------
def test_breaker_opens_after_threshold_and_half_opens():
    brk = CircuitBreaker(threshold=2, cooldown=2)
    key = ("g", "sampling")
    assert brk.allow(key)
    brk.failure(key)
    assert brk.state(key) == "closed"
    brk.failure(key)
    assert brk.state(key) == "open"
    assert not brk.allow(key)       # shed 1
    assert brk.allow(key)           # shed 2 -> half-open probe
    assert brk.state(key) == "half-open"
    brk.failure(key)                # probe failed -> reopen
    assert brk.state(key) == "open"
    assert not brk.allow(key)
    assert brk.allow(key)
    brk.success(key)
    assert brk.state(key) == "closed"


def test_scheduler_quarantines_failing_pair():
    sched = Scheduler(max_retries=0,
                      breaker=CircuitBreaker(threshold=2, cooldown=3))
    for i in (1, 2):
        out = execute(sched, spec(i, seed=i, faults="oom:0x5"))
        assert out.error_kind == "retries-exhausted"
    # pair now open: next job fails fast without burning an attempt
    out = execute(sched, spec(3, seed=3))
    assert not out.ok and out.error_kind == "circuit-open"
    assert out.attempts == 0
    # a different strategy on the same graph is unaffected
    ok = execute(sched, spec(4, seed=4, strategy="hybrid"))
    assert ok.ok


def test_breaker_snapshot_restore_roundtrip():
    brk = CircuitBreaker(threshold=1)
    brk.failure(("g", "s"))
    snap = brk.snapshot()
    brk2 = CircuitBreaker(threshold=1)
    brk2.restore(snap)
    assert not brk2.allow(("g", "s"))


# -- deadlines --------------------------------------------------------
def test_deadline_degrades_to_flagged_estimate():
    sched = Scheduler()
    decisions = collect_decisions(sched)
    out = execute(sched, spec(roots=8, deadline_seconds=1e-9))
    assert out.ok
    assert out.exact is False
    assert out.degraded_reason == "deadline"
    assert out.values.shape == (GRAPH.num_vertices,)
    assert any(d["decision"] == "deadline-degrade" for d in decisions)


def test_deadline_without_degrade_fails_typed():
    sched = Scheduler()
    out = execute(sched, spec(roots=8, deadline_seconds=1e-9,
                              allow_degrade=False))
    assert not out.ok and out.error_kind == "deadline"
    assert "deadline" in out.error


def test_generous_deadline_stays_exact():
    out = execute(Scheduler(), spec(deadline_seconds=1e6))
    assert out.ok and out.exact and out.degraded_reason is None


# -- stragglers -------------------------------------------------------
def test_straggler_run_redispatches_to_healthy_device():
    slow, fast = SimDevice("dev0"), SimDevice("dev1")
    slow.device.straggler_factor = 8.0
    sched = Scheduler([slow, fast], redispatch_factor=4.0)
    decisions = collect_decisions(sched)
    out = execute(sched, spec())
    assert out.ok and out.redispatched
    assert out.device == "dev1"
    kinds = [d["decision"] for d in decisions]
    assert "redispatch" in kinds
    # the slow device's sunk speculative work is still charged
    assert slow.busy_until > 0


def test_no_redispatch_when_every_device_straggles():
    a, b = SimDevice("dev0"), SimDevice("dev1")
    a.device.straggler_factor = 8.0
    b.device.straggler_factor = 8.0
    sched = Scheduler([a, b], redispatch_factor=4.0)
    out = execute(sched, spec())
    assert out.ok and not out.redispatched


def test_straggler_fault_triggers_redispatch():
    sched = Scheduler(redispatch_factor=4.0)
    out = execute(sched, spec(faults="straggler:0x8"))
    assert out.ok and out.redispatched


# -- overload degradation --------------------------------------------
def test_overload_degrade_runs_sampled_estimate():
    metrics = MetricsRegistry()
    sched = Scheduler(metrics=metrics, overload_sample_fraction=0.5)
    decisions = collect_decisions(sched)
    s = spec(roots=8)
    out = execute(sched, s, degrade_reason="overload")
    assert out.ok
    assert out.exact is False and out.degraded_reason == "overload"
    # flagged estimate approximates the exact run (same scale)
    exact = execute(Scheduler(), s)
    assert out.values.sum() == pytest.approx(exact.values.sum(), rel=1.0)
    assert any(d["decision"] == "overload-degrade"
               for d in decisions)


# -- placement and determinism ---------------------------------------
def test_jobs_spread_across_devices():
    sched = Scheduler([SimDevice("dev0"), SimDevice("dev1")])
    d1 = execute(sched, spec(1, seed=1)).device
    d2 = execute(sched, spec(2, seed=2)).device
    assert {d1, d2} == {"dev0", "dev1"}


def test_decision_log_is_byte_deterministic():
    for faults in ("", "fail:0@compute+1", "oom:0x2", "sdc:0@sigma"):
        trace_a, delays_a, out_a = run_decision_trace(7, faults)
        trace_b, delays_b, out_b = run_decision_trace(7, faults)
        assert trace_a == trace_b
        assert delays_a == delays_b
        if out_a.ok:
            np.testing.assert_array_equal(out_a.values, out_b.values)


def test_prior_attempts_resume_retry_budget():
    # 2 prior attempts + max_retries=2 leaves exactly one more try
    sched = Scheduler(max_retries=2)
    out = execute(sched, spec(faults="oom:0x5"), prior_attempts=2)
    assert not out.ok and out.attempts == 3


def test_sample_roots_deterministic_and_capped():
    s = spec(roots=10 ** 6)
    roots = sample_roots(GRAPH, s)
    assert roots.size == GRAPH.num_vertices
    small = sample_roots(GRAPH, spec(roots=4, seed=9))
    np.testing.assert_array_equal(small,
                                  sample_roots(GRAPH, spec(roots=4, seed=9)))
