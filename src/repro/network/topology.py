"""Cluster topology: nodes, cores per node, and rank placement.

Rank placement follows the block convention every MPI launcher in the
paper used (``mpiexec`` default / PBS node files): rank ``r`` lands on
node ``r // cores_per_node``.  The distinction between a 4-core puma
node and a 16-core cc2.8xlarge node is exactly what makes EC2's curves
different at equal rank counts — 1000 ranks mean 250 puma nodes but only
63 EC2 instances.
"""

from __future__ import annotations

from repro.errors import NetworkError
from repro.network.model import NetworkModel


class ClusterTopology:
    """A homogeneous cluster: ``num_nodes`` x ``cores_per_node`` cores.

    Parameters
    ----------
    num_nodes, cores_per_node:
        Machine shape.
    network:
        The :class:`NetworkModel` connecting the nodes.
    """

    def __init__(self, num_nodes: int, cores_per_node: int, network: NetworkModel):
        if num_nodes < 1:
            raise NetworkError(f"num_nodes must be >= 1, got {num_nodes}")
        if cores_per_node < 1:
            raise NetworkError(f"cores_per_node must be >= 1, got {cores_per_node}")
        self.num_nodes = num_nodes
        self.cores_per_node = cores_per_node
        self.network = network

    @property
    def total_cores(self) -> int:
        """Total core count of the machine."""
        return self.num_nodes * self.cores_per_node

    def nodes_for_ranks(self, num_ranks: int) -> int:
        """Number of nodes a block placement of ``num_ranks`` occupies."""
        if num_ranks < 1:
            raise NetworkError(f"num_ranks must be >= 1, got {num_ranks}")
        return -(-num_ranks // self.cores_per_node)  # ceil division

    def node_of_rank(self, rank: int) -> int:
        """Node hosting ``rank`` under block placement."""
        if rank < 0:
            raise NetworkError(f"rank must be >= 0, got {rank}")
        node = rank // self.cores_per_node
        if node >= self.num_nodes:
            raise NetworkError(
                f"rank {rank} needs node {node} but the machine has "
                f"{self.num_nodes} nodes of {self.cores_per_node} cores"
            )
        return node

    def supports(self, num_ranks: int) -> bool:
        """Whether the machine has enough cores for ``num_ranks``."""
        return 1 <= num_ranks <= self.total_cores

    def __repr__(self) -> str:
        return (
            f"ClusterTopology({self.num_nodes} nodes x {self.cores_per_node} cores, "
            f"{self.network.internode.name})"
        )
