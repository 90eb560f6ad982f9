"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py --base B1.json B2.json B3.json \\
                                      --current C1.json C2.json C3.json

Each file is a ``run.py --out`` document.  Every (workload, metric)
is reduced to the median and interquartile range of its runs on each
side; the medians are classified by ``repro.bench.regress.diff_bench``
with the metric's bound and direction from ``BENCHMARK.json``.  A
verdict is ``unresolved`` when either side's IQR exceeds the bound,
unless every current run beats every base run.  Metrics without a
bound (the per-layer ones) are listed as ``info``.  ``same`` marks a
metric whose value is identical in every run of both sides, as the
simulated MTEPS and layer call counts are for one seed.  Exits 1 when
a metric regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.bench.grid import BENCH_SCHEMA  # noqa: E402
from repro.bench.regress import diff_bench  # noqa: E402


def _values(paths) -> dict:
    """``{(workload, metric): [value per run]}``."""
    out: dict = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for workload, res in doc["workloads"].items():
            for metric, value in res["metrics"].items():
                out.setdefault((workload, metric), []).append(float(value))
    return out


def _summary(values: list) -> tuple:
    """(median, IQR) of one side's runs."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q3 - q1


def _doc(rows: dict) -> dict:
    return {"schema": BENCH_SCHEMA, "config": {},
            "results": [{"dataset": w, "strategy": m, "median": med}
                        for (w, m), med in rows.items()]}


def compare(base: dict, current: dict, spec: dict) -> list:
    """One row per (workload, metric) seen on either side."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for name, meta in declared.items():
        keys = sorted(k for k in set(base) | set(current) if k[1] == name)
        if not keys:
            continue
        b = {k: _summary(base[k]) for k in keys if k in base}
        c = {k: _summary(current[k]) for k in keys if k in current}
        higher = meta["better"] == "higher"
        bound = meta.get("bound")
        verdicts = {}
        if bound is not None:
            diff = diff_bench(_doc({k: v[0] for k, v in b.items()}),
                              _doc({k: v[0] for k, v in c.items()}),
                              metric="median", rel_tol=bound, min_effect=0.0,
                              higher_is_better=higher)
            verdicts = {(r.dataset, r.strategy): r.status for r in diff.rows}
        for key in keys:
            status = verdicts.get(key, "info")
            if key in b and key in c and bound is not None:
                spread = max(iqr / abs(med) if med else 0.0
                             for med, iqr in (b[key], c[key]))
                bv, cv = base[key], current[key]
                better = (min(cv) > max(bv)) if higher else (max(cv) < min(bv))
                if spread > bound and not better:
                    status = "unresolved"
            values = base.get(key, []) + current.get(key, [])
            rows.append({
                "workload": key[0], "metric": name, "unit": meta["unit"],
                "bound": bound, "status": status,
                "base_median": b.get(key, (None,))[0],
                "base_iqr": b.get(key, (None, None))[1],
                "current_median": c.get(key, (None,))[0],
                "current_iqr": c.get(key, (None, None))[1],
                "same": len(set(values)) == 1 and key in b and key in c,
            })
    return rows


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--current", nargs="+", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    rows = compare(_values(args.base), _values(args.current), spec)
    print(f"{'workload':<16} {'metric':<36} {'base':>12} {'iqr':>10} "
          f"{'current':>12} {'iqr':>10} {'bound':>6}  status")
    for r in rows:
        print(f"{r['workload']:<16} {r['metric']:<36} "
              f"{_fmt(r['base_median']):>12} {_fmt(r['base_iqr']):>10} "
              f"{_fmt(r['current_median']):>12} "
              f"{_fmt(r['current_iqr']):>10} {_fmt(r['bound']):>6}  "
              f"{r['status']}{' same' if r['same'] else ''}")
    return 1 if any(r["status"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
