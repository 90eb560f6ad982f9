"""Distributed betweenness centrality (Section V-D): the performance
model behind Figure 6 and Table IV.

:func:`scaling_sweep` measures per-root simulated cycle costs on a
sample of roots with the single-GPU device, bootstraps them to the full
root set, block-partitions them across all GPUs, list-schedules each
GPU's roots onto its SMs exactly as the device schedules a run (one
block per SM, each pulling the next root), and adds the graph-broadcast
/ score-reduce communication costs and the fixed per-run setup overhead
that bends the small-scale speedup curves.
:func:`simulate_distributed_run` is its one-point case.

The value-exact multi-GPU program — partition the roots, accumulate a
local BC vector per rank, reduce — is
:func:`repro.resilience.resilient_distributed_bc` run without a fault
plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import partition_roots
from ..graph.csr import CSRGraph
from ..gpusim.device import Device, _list_schedule
from ..gpusim.memory import FLOAT_BYTES, graph_footprint
from .topology import ClusterSpec

__all__ = [
    "partition_roots",
    "ClusterRun",
    "simulate_distributed_run",
    "scaling_sweep",
]


@dataclass(frozen=True)
class ClusterRun:
    """Simulated multi-node run outcome (one Figure 6 data point)."""

    graph: str
    cluster_nodes: int
    num_gpus: int
    num_vertices: int
    num_edges: int
    seconds: float
    compute_seconds: float
    broadcast_seconds: float
    reduce_seconds: float
    setup_seconds: float

    def teps(self) -> float:
        """Eq. 4 over the full n-root computation."""
        if self.seconds <= 0:
            return float("inf")
        return self.num_edges * self.num_vertices / self.seconds

    def gteps(self) -> float:
        return self.teps() / 1e9


def simulate_distributed_run(
    g: CSRGraph,
    cluster: ClusterSpec,
    strategy: str = "sampling",
    sample_roots: int = 64,
    seed: int = 0,
) -> ClusterRun:
    """Model a full n-root BC run on ``cluster``: the one-point
    :func:`scaling_sweep` at ``cluster.num_nodes``."""
    return scaling_sweep(g, cluster, (cluster.num_nodes,), strategy,
                         sample_roots, seed)[0]


def scaling_sweep(
    g: CSRGraph,
    cluster: ClusterSpec,
    node_counts,
    strategy: str = "sampling",
    sample_roots: int = 64,
    seed: int = 0,
) -> list:
    """Model a full n-root BC run on ``cluster`` at each of
    ``node_counts`` (one Figure 6 curve).

    ``sample_roots`` distinct sources, drawn from ``seed``, are executed
    on one simulated GPU to obtain the empirical per-root cycle
    distribution.  The same generator then bootstrap-resamples every
    one of the n roots' costs from it (valid per the paper's
    uniform-per-root-cost argument; the resampling retains the variance
    that causes small-scale load imbalance), and every node count
    schedules that one draw.
    """
    n = g.num_vertices
    rng = np.random.default_rng(seed)
    k = min(int(sample_roots), n)
    measured = np.array([0.0])
    if k:
        run = Device(cluster.gpu).run_bc(
            g, strategy=strategy, roots=rng.choice(n, size=k, replace=False),
            n_samps=min(64, max(1, k // 2)))
        measured = np.array([rt.cycles for rt in run.trace.roots])
    all_cycles = rng.choice(measured, size=n, replace=True)
    return [_distributed_run(g, cluster.with_nodes(int(nodes)), all_cycles)
            for nodes in node_counts]


def _distributed_run(g: CSRGraph, cluster: ClusterSpec,
                     all_cycles: np.ndarray) -> ClusterRun:
    """One node count's run over the bootstrapped per-root cycles."""
    n = g.num_vertices
    num_gpus = cluster.num_gpus
    # Each GPU list-schedules its block of roots over its SMs, as the
    # device does; the slowest GPU finishes the compute phase.
    compute_cycles = max(
        _list_schedule(all_cycles[p].tolist(), cluster.gpu.num_sms)[0]
        for p in partition_roots(n, num_gpus))
    compute_s = cluster.gpu.seconds(compute_cycles)

    # Graph replication: Infiniband tree broadcast to every node, then a
    # PCIe copy to each of the node's GPUs (sequential per node: one
    # host link feeds all three cards).
    gbytes = graph_footprint(g)
    bcast_s = cluster.network.tree_collective_seconds(gbytes, cluster.num_nodes)
    bcast_s += cluster.gpus_per_node * cluster.pcie.transfer_seconds(gbytes)

    # Score reduction: GPUs -> host over PCIe, host vectors -> root via
    # an MPI_Reduce tree (Section V-D).
    sbytes = n * FLOAT_BYTES
    reduce_s = cluster.gpus_per_node * cluster.pcie.transfer_seconds(sbytes)
    reduce_s += cluster.network.tree_collective_seconds(sbytes, cluster.num_nodes)

    total = cluster.setup_seconds + bcast_s + compute_s + reduce_s
    return ClusterRun(
        graph=g.name or "graph",
        cluster_nodes=cluster.num_nodes,
        num_gpus=num_gpus,
        num_vertices=n,
        num_edges=g.num_edges,
        seconds=total,
        compute_seconds=compute_s,
        broadcast_seconds=bcast_s,
        reduce_seconds=reduce_s,
        setup_seconds=cluster.setup_seconds,
    )
