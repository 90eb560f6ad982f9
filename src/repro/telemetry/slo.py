"""Per-tenant / per-strategy SLO accounting over the event stream.

:func:`aggregate_slo` folds a ``repro.events/v1`` stream into a
``repro.slo/v1`` report:

* per ``(tenant, strategy)`` group — job counts by terminal state,
  shed/degraded rates, the **error-budget burn** (fraction of offered
  jobs that did not complete exactly: shed + failed + cancelled +
  degraded), end-to-end latency p50/p99/mean/max and its decomposition
  into queued/backoff/compute phase totals;
* a latency histogram per group whose buckets carry **exemplar job
  ids** — the slowest job landing in each bucket — so a bad p99 is one
  ``repro trace timeline <job-id>`` away from its full lifecycle;
* service-wide totals plus stream health (events, by kind).

:func:`render_top` draws the offline snapshot dashboard ``repro
service top`` prints.  Like every consumer here it needs only the
journal the stream is derived from: daemon live, dead, or mid-crash.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SLO_SCHEMA", "LATENCY_BUCKETS", "aggregate_slo", "render_top"]

SLO_SCHEMA = "repro.slo/v1"

#: Latency histogram bucket upper bounds (simulated seconds): powers of
#: four from 0.25 ms to ~17 min, plus the implicit +inf tail.
LATENCY_BUCKETS = tuple(float(4.0**k) for k in range(-6, 6))


def _percentile(values, q) -> float | None:
    if not values:
        return None
    return round(float(np.percentile(np.asarray(values, dtype=np.float64),
                                     q)), 9)


def _group(groups: dict, tenant, strategy) -> dict:
    key = (str(tenant), str(strategy))
    g = groups.get(key)
    if g is None:
        g = groups[key] = {
            "tenant": key[0], "strategy": key[1],
            "offered": 0, "done": 0, "exact": 0, "degraded": 0,
            "failed": 0, "shed": 0, "cancelled": 0,
            "latencies": [], "exemplars": {},
            "queued": 0.0, "backoff": 0.0, "compute": 0.0,
        }
    return g


def aggregate_slo(events) -> dict:
    """Fold one event stream into a ``repro.slo/v1`` report."""
    groups: dict = {}
    # job id -> its group key (set at submit; shed carries its own).
    job_group: dict = {}
    job_trace: dict = {}
    counts: dict = {}
    for ev in events:
        kind = ev.get("event")
        counts[kind] = counts.get(kind, 0) + 1
        job_id = ev.get("job_id")
        if ev.get("trace_id") and job_id:
            job_trace[job_id] = ev["trace_id"]
        if kind == "submit":
            g = _group(groups, ev.get("tenant"), ev.get("strategy"))
            g["offered"] += 1
            job_group[job_id] = (g["tenant"], g["strategy"])
        elif kind == "shed":
            g = _group(groups, ev.get("tenant"), ev.get("strategy"))
            g["offered"] += 1
            g["shed"] += 1
        elif kind in ("done", "fail", "cancel"):
            key = job_group.get(job_id)
            if key is None:
                continue
            g = groups[key]
            if kind == "cancel":
                g["cancelled"] += 1
                continue
            phases = ev.get("phases") or {}
            for ph in ("queued", "backoff", "compute"):
                g[ph] += float(phases.get(ph, 0.0))
            if kind == "fail":
                g["failed"] += 1
                continue
            g["done"] += 1
            if ev.get("exact"):
                g["exact"] += 1
            else:
                g["degraded"] += 1
            e2e = float(ev.get("e2e") or 0.0)
            g["latencies"].append(e2e)
            # Exemplar: the slowest job in each histogram bucket.
            b = next((i for i, bound in enumerate(LATENCY_BUCKETS)
                      if e2e <= bound), len(LATENCY_BUCKETS))
            prev = g["exemplars"].get(b)
            if prev is None or e2e > prev["e2e"]:
                g["exemplars"][b] = {
                    "job_id": job_id,
                    "trace_id": job_trace.get(job_id),
                    "e2e": round(e2e, 9),
                }

    rows = []
    for key in sorted(groups):
        g = groups[key]
        lat = g["latencies"]
        hist_counts = [0] * (len(LATENCY_BUCKETS) + 1)
        for e2e in lat:
            b = next((i for i, bound in enumerate(LATENCY_BUCKETS)
                      if e2e <= bound), len(LATENCY_BUCKETS))
            hist_counts[b] += 1
        offered = g["offered"]
        not_exact = g["shed"] + g["failed"] + g["cancelled"] + g["degraded"]
        rows.append({
            "tenant": g["tenant"], "strategy": g["strategy"],
            "offered": offered, "done": g["done"], "exact": g["exact"],
            "degraded": g["degraded"], "failed": g["failed"],
            "shed": g["shed"], "cancelled": g["cancelled"],
            "shed_rate": round(g["shed"] / offered, 9) if offered else 0.0,
            "degraded_rate": (round(g["degraded"] / offered, 9)
                              if offered else 0.0),
            "error_budget_burn": (round(not_exact / offered, 9)
                                  if offered else 0.0),
            "e2e": {
                "p50": _percentile(lat, 50),
                "p99": _percentile(lat, 99),
                "mean": (round(float(np.mean(lat)), 9) if lat else None),
                "max": (round(float(np.max(lat)), 9) if lat else None),
            },
            "phases": {"queued": round(g["queued"], 9),
                       "backoff": round(g["backoff"], 9),
                       "compute": round(g["compute"], 9)},
            "histogram": {
                "buckets": list(LATENCY_BUCKETS),
                "counts": hist_counts,
                "exemplars": [
                    {"bucket": ("inf" if b == len(LATENCY_BUCKETS)
                                else LATENCY_BUCKETS[b]), **ex}
                    for b, ex in sorted(g["exemplars"].items())
                ],
            },
        })
    all_lat = [e for g in groups.values() for e in g["latencies"]]
    totals = {
        "offered": sum(r["offered"] for r in rows),
        "done": sum(r["done"] for r in rows),
        "exact": sum(r["exact"] for r in rows),
        "degraded": sum(r["degraded"] for r in rows),
        "failed": sum(r["failed"] for r in rows),
        "shed": sum(r["shed"] for r in rows),
        "cancelled": sum(r["cancelled"] for r in rows),
        "e2e": {"p50": _percentile(all_lat, 50),
                "p99": _percentile(all_lat, 99)},
    }
    return {
        "schema": SLO_SCHEMA,
        "groups": rows,
        "totals": totals,
        "stream": {"events": len(list(events)),
                   "by_kind": {k: counts[k] for k in sorted(counts)
                               if k is not None}},
    }


def _fmt(value, width=9) -> str:
    if value is None:
        return "-".rjust(width)
    return f"{value:.2e}".rjust(width)


def render_top(report: dict) -> list:
    """The ``repro service top`` dashboard for one SLO report."""
    lines = [
        f"{'tenant':>10s} {'strategy':>15s} {'offered':>7s} {'done':>5s} "
        f"{'shed':>5s} {'degr':>5s} {'fail':>5s} {'p50 e2e':>9s} "
        f"{'p99 e2e':>9s} {'burn':>6s}",
    ]
    for g in report["groups"]:
        lines.append(
            f"{g['tenant']:>10s} {g['strategy']:>15s} "
            f"{g['offered']:>7d} {g['done']:>5d} {g['shed']:>5d} "
            f"{g['degraded']:>5d} {g['failed']:>5d} "
            f"{_fmt(g['e2e']['p50'])} {_fmt(g['e2e']['p99'])} "
            f"{g['error_budget_burn']:>6.1%}")
        ph = g["phases"]
        total = ph["queued"] + ph["backoff"] + ph["compute"]
        if total > 0:
            lines.append(
                f"{'':>26s} phases: queued {ph['queued'] / total:.0%} "
                f"backoff {ph['backoff'] / total:.0%} "
                f"compute {ph['compute'] / total:.0%} "
                f"(total {total:.2e}s)")
        for ex in g["histogram"]["exemplars"][-2:]:
            lines.append(
                f"{'':>26s} exemplar <= {ex['bucket']}s: "
                f"{ex['job_id']} ({ex['e2e']:.2e}s) "
                f"trace {ex['trace_id']}")
    t = report["totals"]
    lines.append(
        f"{'TOTAL':>10s} {'':>15s} {t['offered']:>7d} {t['done']:>5d} "
        f"{t['shed']:>5d} {t['degraded']:>5d} {t['failed']:>5d} "
        f"{_fmt(t['e2e']['p50'])} {_fmt(t['e2e']['p99'])}")
    lines.append(f"{report['stream']['events']} event(s) in stream")
    return lines
