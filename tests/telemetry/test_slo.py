"""SLO aggregation: grouping, rates, percentiles, exemplars, top."""

from __future__ import annotations

import pytest

from repro.service import AdmissionPolicy, BCService, JobSpec
from repro.telemetry import (
    LATENCY_BUCKETS,
    SLO_SCHEMA,
    aggregate_slo,
    read_events,
    render_top,
)

pytestmark = pytest.mark.telemetry


def ev(kind, **kw):
    base = {"event": kind, "seq": ev.n, "t": 0.0}
    ev.n += 1
    base.update(kw)
    return base


ev.n = 1


def submit(job, tenant="t0", strategy="sampling", **kw):
    return ev("submit", job_id=job, trace_id=f"tr{job}", tenant=tenant,
              strategy=strategy, **kw)


def done(job, e2e, **kw):
    kw.setdefault("exact", True)
    kw.setdefault("phases", {"queued": 0.0, "backoff": 0.0,
                             "compute": e2e})
    return ev("done", job_id=job, e2e=e2e, **kw)


def test_groups_rates_and_percentiles():
    events = [
        submit("a"), done("a", 1.0),
        submit("b"), done("b", 3.0),
        submit("c"), done("c", 2.0, exact=False,
                          degraded_reason="overload"),
        submit("d", tenant="t1"), ev("fail", job_id="d",
                                     phases={"queued": 0.5, "backoff": 0.0,
                                             "compute": 0.0}),
        ev("shed", job_id="e", tenant="t1", strategy="sampling",
           trace_id="tre"),
    ]
    report = aggregate_slo(events)
    assert report["schema"] == SLO_SCHEMA
    by = {(g["tenant"], g["strategy"]): g for g in report["groups"]}
    g0 = by[("t0", "sampling")]
    assert (g0["offered"], g0["done"], g0["degraded"]) == (3, 3, 1)
    assert g0["error_budget_burn"] == pytest.approx(1 / 3)
    assert g0["e2e"]["p50"] == pytest.approx(2.0)
    assert g0["e2e"]["max"] == pytest.approx(3.0)
    g1 = by[("t1", "sampling")]
    assert (g1["offered"], g1["failed"], g1["shed"]) == (2, 1, 1)
    assert g1["shed_rate"] == pytest.approx(0.5)
    assert g1["error_budget_burn"] == pytest.approx(1.0)
    assert g1["phases"]["queued"] == pytest.approx(0.5)
    totals = report["totals"]
    assert (totals["offered"], totals["done"], totals["shed"]) == (5, 3, 1)
    assert report["stream"]["by_kind"]["submit"] == 4


def test_exemplars_pick_slowest_per_bucket():
    # Two jobs in the same bucket: the slower one is the exemplar.
    b = LATENCY_BUCKETS[6]
    events = [
        submit("slow"), done("slow", b * 0.9),
        submit("fast"), done("fast", b * 0.8),
        submit("huge"), done("huge", LATENCY_BUCKETS[-1] * 10),  # inf tail
    ]
    report = aggregate_slo(events)
    exemplars = report["groups"][0]["histogram"]["exemplars"]
    by_bucket = {x["bucket"]: x for x in exemplars}
    assert by_bucket[b]["job_id"] == "slow"
    assert by_bucket[b]["trace_id"] == "trslow"
    assert by_bucket["inf"]["job_id"] == "huge"
    counts = report["groups"][0]["histogram"]["counts"]
    assert sum(counts) == 3 and counts[-1] == 1


def test_empty_stream():
    report = aggregate_slo([])
    assert report["groups"] == []
    assert report["totals"]["e2e"]["p50"] is None
    assert render_top(report)  # header + totals render without rows


def test_render_top_shows_groups_and_exemplars():
    events = [submit("a", tenant="acme"), done("a", 0.5)]
    lines = render_top(aggregate_slo(events))
    text = "\n".join(lines)
    assert "acme" in text and "TOTAL" in text
    assert "exemplar" in text and "tra" in text
    assert "compute 100%" in text


def test_slo_over_real_service_run(tmp_path):
    with BCService(tmp_path / "svc",
                   policy=AdmissionPolicy(max_queue=1,
                                          degrade_threshold=1)) as svc:
        ids = []
        for i in (1, 2, 3):
            try:
                job = svc.submit(JobSpec(
                    job_id=f"j{i:06d}", graph="smallworld",
                    scale_factor=512, strategy="sampling", roots=4,
                    seed=i, tenant=f"t{i % 2}"))
                ids.append(job.job_id)
            except Exception:
                pass
            svc.run_pending()
        events, _ = read_events(tmp_path / "svc")
    report = aggregate_slo(events)
    assert report["totals"]["offered"] == 3
    assert report["totals"]["done"] >= 1
    # Groups are keyed (tenant, strategy) and sorted.
    keys = [(g["tenant"], g["strategy"]) for g in report["groups"]]
    assert keys == sorted(keys)
