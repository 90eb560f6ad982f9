"""Distributed betweenness centrality (Section V-D).

Two layers:

* :func:`distributed_bc_values` — a *value-exact* MPI-style program:
  roots are block-partitioned over ranks, each rank accumulates a local
  BC vector with the single-GPU engine's public API, and the vectors
  are summed with :class:`~repro.cluster.mpi_sim.SimComm`'s ``reduce``.
  This is the program structure the paper runs on KIDS, minus the
  hardware.
* :func:`simulate_distributed_run` — the *performance* model behind
  Figure 6 and Table IV: per-root simulated cycle costs are measured on
  a sample of roots with the single-GPU device, bootstrapped to the
  full root set, block-partitioned across all GPUs, and combined with
  the graph-broadcast / score-reduce communication costs and the fixed
  per-run setup overhead that bends the small-scale speedup curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import partition_roots
from ..bc.api import betweenness_centrality
from ..errors import ClusterConfigurationError
from ..graph.csr import CSRGraph
from ..gpusim.device import Device
from ..gpusim.memory import FLOAT_BYTES, graph_footprint
from .mpi_sim import SimComm
from .topology import ClusterSpec

__all__ = [
    "partition_roots",
    "distributed_bc_values",
    "ClusterRun",
    "simulate_distributed_run",
    "scaling_sweep",
]


def distributed_bc_values(
    g: CSRGraph, num_ranks: int, comm: SimComm | None = None
) -> np.ndarray:
    """Exact BC via the rank-parallel decomposition + reduce.

    Equivalent to :func:`repro.bc.betweenness_centrality`; the test
    suite asserts bit-for-bit-close equality for any rank count.
    """
    if comm is None:
        comm = SimComm(num_ranks)
    elif comm.size != num_ranks:
        raise ClusterConfigurationError("communicator size mismatch")
    parts = partition_roots(g.num_vertices, num_ranks)
    # Each rank computes its local copy of the BC scores; a rank whose
    # part is empty (more ranks than roots) contributes the zero vector.
    locals_ = [betweenness_centrality(g, sources=part) for part in parts]
    # ...which are reduced into the global scores (MPI_Reduce).
    return comm.reduce(locals_, root=0)


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
        k = min(int(sample_roots), n)
        sampled = rng.choice(n, size=k, replace=False) if k else np.empty(0, np.int64)
        run = device.run_bc(g, strategy=strategy, roots=sampled,
                            n_samps=min(64, max(1, k // 2)))
        measured = np.array([rt.cycles for rt in run.trace.roots], dtype=np.float64)
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
    n = g.num_vertices
    rng = np.random.default_rng(seed)
    device = Device(cluster.gpu)
    k = min(int(sample_roots), n)
    sampled = rng.choice(n, size=k, replace=False) if k else np.empty(0, np.int64)
    run = device.run_bc(g, strategy=strategy, roots=sampled,
                        n_samps=min(64, max(1, k // 2)))
    measured = np.array([rt.cycles for rt in run.trace.roots], dtype=np.float64)
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
