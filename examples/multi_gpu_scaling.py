#!/usr/bin/env python3
"""Multi-GPU scaling study (the paper's Section V-D, on your laptop).

Two layers of the reproduction, shown side by side:

1. **Real parallelism** — the exact BC computation decomposed over a
   process pool exactly the way the paper decomposes it over GPUs
   (partition roots, accumulate local score vectors, reduce), with a
   wall-clock speedup measurement.
2. **Simulated KIDS cluster** — the performance model behind Figure 6
   and Table IV: sweep 1 -> 64 nodes (3 Tesla M2090s each) and watch
   speedup approach linear as the problem grows.

Run:  python examples/multi_gpu_scaling.py
"""

import os
import time

import numpy as np

from repro.bc.api import betweenness_centrality
from repro.cluster import kids, scaling_sweep
from repro.graph.generators import delaunay_graph, watts_strogatz
from repro.parallel import parallel_betweenness_centrality


def real_parallel_demo() -> None:
    g = watts_strogatz(3000, k=8, p=0.1, seed=1)
    roots = np.arange(600)
    workers = min(4, os.cpu_count() or 1)
    print(f"Process-pool decomposition on {g.num_vertices}-vertex "
          f"small-world graph, {roots.size} roots:")

    t0 = time.perf_counter()
    serial = betweenness_centrality(g, sources=roots)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = parallel_betweenness_centrality(g, sources=roots,
                                               num_workers=workers)
    t_parallel = time.perf_counter() - t0

    assert np.allclose(serial, parallel), "decomposition must be exact"
    print(f"  serial   : {t_serial:6.2f} s")
    print(f"  {workers} workers: {t_parallel:6.2f} s "
          f"({t_serial / max(t_parallel, 1e-9):.2f}x, scores equal to "
          f"round-off; the same bytes for any worker count)")
    print("  (partition roots -> local accumulation -> reduce: the exact "
          "structure of the paper's MPI program)\n")


def simulated_cluster_demo() -> None:
    print("Simulated KIDS cluster (3x Tesla M2090 per node), "
          "speedup vs one node:")
    node_counts = (1, 4, 16, 64)
    header = "  {:<22}".format("graph")
    header += "".join(f"{n:>8}n" for n in node_counts)
    print(header)
    for scale in (13, 15):
        g = delaunay_graph(1 << scale, seed=0)
        g = g.with_name(f"delaunay_n{scale}")
        runs = scaling_sweep(g, kids(1), node_counts, sample_roots=12, seed=0)
        base = runs[0].seconds
        row = f"  {g.name:<22}"
        row += "".join(f"{base / r.seconds:8.1f}x" for r in runs)
        print(row)
    print("\nBigger problems scale closer to linear — the paper needed "
          "2^18 vertices for near-linear speedup on 64 nodes (Figure 6); "
          "the same bend shows here at smaller scales because fixed setup "
          "and reduction costs amortise only against enough per-GPU work.")


if __name__ == "__main__":
    real_parallel_demo()
    simulated_cluster_demo()
