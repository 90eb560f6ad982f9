"""Lockstep group widths, measured: the width table of DESIGN section 5.

    PYTHONPATH=src python3 benchmarks/lockstep_widths.py [--repeats N]

For every Table II dataset at 1/64 scale, and for the service's job
graph (caidaRouterLevel at 1/256 with 8 roots), maps a fixed root
sample onto the degree-1-folded core (:func:`repro.bc.preprocess.root_plan`,
as ``Device.run_bc`` does) and times one work-efficient
:func:`repro.bc.engine.run_roots` call -- sweep, accumulation and
charging -- at widths 1, 2, 4, 8 and 16 and at the width rule's pick
(:func:`repro.bc.frontier.group_width`, capped at the root count).
Each cell is the best of ``--repeats`` runs, the widths interleaved
within each repeat.  The last columns give the fastest width and the
rule's time over the fastest.  ``bc`` must be byte-identical at every
width; the script exits 1 if it is not.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

import numpy as np

from repro.bc import engine
from repro.bc.frontier import group_width
from repro.bc.policies import FixedPolicy
from repro.bc.preprocess import root_plan
from repro.gpusim import GTX_TITAN
from repro.gpusim.cost import DEFAULT_COSTS
from repro.graph.generators import DATASETS, make_dataset
from repro.harness.runner import pick_roots

WIDTHS = (1, 2, 4, 8, 16)

#: ``(dataset, scale_factor, roots)``: the Table II cores at 1/64 with
#: 16 roots each (the e2e grids' size), then the service's job graph.
CASES = tuple((name, 64, 16) for name in sorted(DATASETS)) + (
    ("caidaRouterLevel", 256, 8),)


def _time(plan, width: int, policy) -> tuple:
    """``(seconds, bc bytes)`` of one run of the plan's roots."""
    bc = np.zeros(plan.graph.num_vertices)
    gc.collect()
    t0 = time.perf_counter()
    engine.run_roots(plan.graph, plan.run_roots, bc, policy, DEFAULT_COSTS,
                     GTX_TITAN.concurrent_threads_per_sm,
                     target_weights=plan.target_weights, width=width)
    return time.perf_counter() - t0, bc.tobytes()


def measure(name: str, scale: int, roots: int, repeats: int) -> dict:
    """Best-of-``repeats`` milliseconds per width for one case."""
    g = make_dataset(name, scale, seed=0)
    plan = root_plan(g, pick_roots(g, roots, seed=0))
    k = plan.run_roots.size
    rule = group_width(plan.graph)
    widths = sorted({min(w, k) for w in WIDTHS} | {min(rule, k)})
    policy = FixedPolicy("work-efficient")
    best = dict.fromkeys(widths, float("inf"))
    want = _time(plan, 1, policy)[1]
    for _ in range(repeats):
        for w in widths:
            seconds, got = _time(plan, w, policy)
            if got != want:
                raise SystemExit(f"{name}@{scale}: bc differs at width {w}")
            best[w] = min(best[w], seconds * 1e3)
    fastest = min(best, key=best.get)
    return {"name": f"{name}@{scale}", "n": plan.graph.num_vertices,
            "m": plan.graph.num_directed_edges, "k": k, "ms": best,
            "rule": rule, "rule_ms": best[min(rule, k)], "best": fastest}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=7,
                    help="runs per width; each cell is the best")
    args = ap.parse_args(argv)
    print("| core (scale, roots) | n | m | "
          + " | ".join(f"w={w}" for w in WIDTHS)
          + " | rule | best | rule/best |")
    print("|---" * (len(WIDTHS) + 6) + "|")
    for name, scale, roots in CASES:
        row = measure(name, scale, roots, args.repeats)
        cells = [f"{row['ms'][min(w, row['k'])]:.1f}" for w in WIDTHS]
        print(f"| {row['name']}, {row['k']} | {row['n']} | {row['m']} | "
              + " | ".join(cells)
              + f" | {row['rule']} ({row['rule_ms']:.1f}) | {row['best']}"
              f" | {row['rule_ms'] / row['ms'][row['best']]:.2f} |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
