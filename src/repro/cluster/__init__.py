"""Multi-node substrate: interconnect/topology models, MPI-like
communicator, the Figure 6 / Table IV performance model."""

from .distributed import (
    ClusterRun,
    partition_roots,
    scaling_sweep,
    simulate_distributed_run,
)
from .interconnect import INFINIBAND_QDR, PCIE2_X16, LinkModel
from .mpi_sim import SimComm
from .topology import ClusterSpec, kids

__all__ = [
    "LinkModel",
    "INFINIBAND_QDR",
    "PCIE2_X16",
    "ClusterSpec",
    "kids",
    "SimComm",
    "partition_roots",
    "ClusterRun",
    "simulate_distributed_run",
    "scaling_sweep",
]
