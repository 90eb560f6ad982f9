"""Distributed betweenness centrality (Section V-D): the performance
model behind Figure 6 and Table IV.

:func:`simulate_distributed_run` measures per-root simulated cycle
costs on a sample of roots with the single-GPU device, bootstraps them
to the full root set, block-partitions them across all GPUs, and adds
the graph-broadcast / score-reduce communication costs and the fixed
per-run setup overhead that bends the small-scale speedup curves.

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
from ..gpusim.device import Device
from ..gpusim.memory import FLOAT_BYTES, graph_footprint
from .topology import ClusterSpec

__all__ = [
    "partition_roots",
    "sample_root_cycles",
    "ClusterRun",
    "simulate_distributed_run",
    "scaling_sweep",
]


def sample_root_cycles(g: CSRGraph, device: Device, strategy: str,
                       sample_roots: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Simulated cycles of each of ``sample_roots`` distinct roots drawn
    from ``rng`` (fewer on a smaller graph; none drawn for zero), run
    on ``device`` under ``strategy``, in draw order."""
    n = g.num_vertices
    k = min(int(sample_roots), n)
    if k == 0:
        return np.empty(0, dtype=np.float64)
    sampled = rng.choice(n, size=k, replace=False)
    run = device.run_bc(g, strategy=strategy, roots=sampled,
                        n_samps=min(64, max(1, k // 2)))
    return np.array([rt.cycles for rt in run.trace.roots], dtype=np.float64)


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


def _per_gpu_makespan(root_cycles: np.ndarray, num_sms: int) -> float:
    """Lower-bound makespan of one GPU's root list over its SMs: the
    larger of perfect division and the single longest root."""
    if root_cycles.size == 0:
        return 0.0
    return max(float(root_cycles.sum()) / num_sms, float(root_cycles.max()))


def simulate_distributed_run(
    g: CSRGraph,
    cluster: ClusterSpec,
    strategy: str = "sampling",
    sample_roots: int = 64,
    seed: int = 0,
    device: Device | None = None,
    measured_cycles: np.ndarray | None = None,
) -> ClusterRun:
    """Model a full n-root BC run on ``cluster``.

    ``sample_roots`` sources are actually executed on a single
    simulated GPU to obtain the empirical per-root cycle distribution;
    the remaining roots' costs are bootstrap-resampled from it (valid
    per the paper's uniform-per-root-cost argument, and the resampling
    retains the variance that causes small-scale load imbalance).
    Pass ``measured_cycles`` to reuse a distribution measured earlier
    (the Figure 6 sweep shares one sample across node counts).
    """
    n = g.num_vertices
    rng = np.random.default_rng(seed)
    if measured_cycles is not None:
        measured = np.asarray(measured_cycles, dtype=np.float64)
    else:
        if device is None:
            device = Device(cluster.gpu)
        measured = sample_root_cycles(g, device, strategy, sample_roots,
                                      rng)
    if measured.size == 0:
        measured = np.array([0.0])
    # Bootstrap every root's cost from the empirical distribution.
    all_cycles = rng.choice(measured, size=n, replace=True)

    num_gpus = cluster.num_gpus
    parts = partition_roots(n, num_gpus)
    per_gpu = np.array([
        _per_gpu_makespan(all_cycles[p], cluster.gpu.num_sms) for p in parts
    ])
    compute_s = cluster.gpu.seconds(float(per_gpu.max(initial=0.0)))

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


def scaling_sweep(
    g: CSRGraph,
    cluster: ClusterSpec,
    node_counts,
    strategy: str = "sampling",
    sample_roots: int = 64,
    seed: int = 0,
) -> list:
    """Run :func:`simulate_distributed_run` at several node counts
    (one Figure 6 curve); the per-root sample is shared across points."""
    measured = sample_root_cycles(g, Device(cluster.gpu), strategy,
                                  sample_roots, np.random.default_rng(seed))
    runs = []
    for nodes in node_counts:
        runs.append(
            simulate_distributed_run(
                g, cluster.with_nodes(int(nodes)), strategy=strategy,
                sample_roots=sample_roots, seed=seed,
                measured_cycles=measured,
            )
        )
    return runs
