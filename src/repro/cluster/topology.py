"""Cluster topology description.

The preset mirrors KIDS: each node hosts two Xeon X5660s (not modelled
— BC never touches the host CPUs except for MPI) and three Tesla
M2090 GPUs; nodes are connected by Infiniband QDR (Section V-A).  The
paper's largest runs use 64 nodes = 192 GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ClusterConfigurationError
from ..gpusim.spec import TESLA_M2090, GPUSpec
from .interconnect import INFINIBAND_QDR, PCIE2_X16, LinkModel

__all__ = ["ClusterSpec", "kids"]


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous multi-node GPU cluster."""

    name: str
    num_nodes: int
    gpus_per_node: int
    gpu: GPUSpec
    network: LinkModel = INFINIBAND_QDR
    pcie: LinkModel = PCIE2_X16
    #: Fixed per-run overhead (MPI launch, context creation, graph load);
    #: this is what bends the small-scale speedup curves of Figure 6.
    setup_seconds: float = 2.0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ClusterConfigurationError("num_nodes must be >= 1")
        if self.gpus_per_node < 1:
            raise ClusterConfigurationError("gpus_per_node must be >= 1")
        if self.setup_seconds < 0:
            raise ClusterConfigurationError("setup_seconds must be >= 0")

    @property
    def num_gpus(self) -> int:
        """Total GPUs across the cluster."""
        return self.num_nodes * self.gpus_per_node

    def with_nodes(self, num_nodes: int) -> "ClusterSpec":
        """Same cluster at a different node count (Figure 6 sweeps)."""
        return ClusterSpec(
            name=self.name,
            num_nodes=int(num_nodes),
            gpus_per_node=self.gpus_per_node,
            gpu=self.gpu,
            network=self.network,
            pcie=self.pcie,
            setup_seconds=self.setup_seconds,
        )


def kids(num_nodes: int = 64) -> ClusterSpec:
    """The Keeneland Initial Delivery System at ``num_nodes`` nodes."""
    return ClusterSpec(
        name="KIDS",
        num_nodes=int(num_nodes),
        gpus_per_node=3,
        gpu=TESLA_M2090,
    )
