"""End-to-end benchmark of the BC library and service.

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
                                  [--seconds S] [--trace 0|1] [--out FILE]

Runs each workload in its own fresh single-threaded Python process,
one after another, prints every metric declared in ``BENCHMARK.json``
with its unit, then one JSON line: ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 1`` swaps the end-to-end metrics for
the per-layer ones and writes a Chrome trace per workload under
``benchmarks/e2e/out/``.  Exits 1 when a check fails, 2 when the
benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("grid-scalefree", "grid-deep", "service-fresh", "service-repeat")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKER_TIMEOUT_S = 900


def declared(trace: bool) -> dict:
    """``{metric: unit}`` the run must emit, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _worker(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    out = workloads.run_workload(args.workload, args.seed, args.seconds,
                                 trace=bool(args.trace))
    print(json.dumps(out.to_dict()))
    return 0


def _run_worker(name: str, args) -> dict | None:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.abspath(__file__), "--worker",
           "--workload", name, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {name} did not finish in {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {name} worker exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _report(name: str, res: dict, units: dict, args) -> None:
    print(f"== {name}  seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for metric, unit in units.items():
        print(f"  {metric:<40} {res['metrics'][metric]:>16.6g} {unit}")
    info = res["info"]
    if "samples" in info:
        pct = " ".join(f"{q}={v:.4g}" for q, v in info["latency_ms"].items())
        print(f"  samples: {info['samples']} timed jobs, {info['setups']} "
              f"set-ups; latency ms {pct}; {info['jobs_per_s']:.4g} jobs/s")
    rate = res["failed"] / max(1, res["attempted"])
    print(f"  error_rate: {res['failed']}/{res['attempted']} = {rate:.4g}")
    for what in res["failures"]:
        print(f"  FAILED: {what}")
    for key in ("raw_setup_s", "yardstick_ms", "warmup_s", "preload_s",
                "verified_jobs", "traced_wall_s", "trace_file"):
        if key in info:
            print(f"  {key}: {info[key]}")
    if "coverage" in info:
        print("  decision coverage (forward levels per strategy):")
        for run, row in info["coverage"].items():
            cells = " ".join(f"{k}={v}" for k, v in row.items())
            print(f"    {run:<36} {cells}")
    if "sim_mteps" in info:
        print("  sim MTEPS per run:")
        for run, v in info["sim_mteps"].items():
            print(f"    {run:<36} {v:10.2f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--out", help="also write every workload's full "
                                  "result here (input to compare.py)")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return _worker(args)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    units = declared(bool(args.trace))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = _run_worker(name, args)
        if res is None:
            return 2
        missing = sorted(set(units) - set(res["metrics"]))
        if missing:
            print(f"error: {name} did not emit {missing}", file=sys.stderr)
            return 2
        results[name] = res
        _report(name, res, units, args)

    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"schema": "repro.e2e/v1", "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "workloads": results}, fh, indent=1, sort_keys=True)

    def metrics(res: dict, prefix: str = "") -> dict:
        return {prefix + m: {"value": res["metrics"][m], "unit": u}
                for m, u in units.items()}

    if len(names) == 1:
        merged = metrics(results[names[0]])
    else:
        merged = {}
        for name, res in results.items():
            merged.update(metrics(res, f"{name}/"))
    correct = all(res["correct"] for res in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": merged,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
