"""Interconnect models for the four target platforms.

Latency/bandwidth (alpha-beta) link models with hierarchical topology:
intra-node transfers go through shared memory, inter-node transfers
through the cluster fabric — 1 GbE on puma/ellipse, InfiniBand 4X DDR on
lagrange, virtualized 10 GbE on EC2 (with placement-group distance).

The paper attributes essentially all scaling differences between the
platforms to these fabrics; this package is where that heterogeneity
becomes executable.
"""

from repro.network.model import (
    LinkModel,
    NetworkModel,
    SHARED_MEMORY,
    GIGABIT_ETHERNET,
    TEN_GIGABIT_ETHERNET,
    INFINIBAND_4X_DDR,
)
from repro.network.topology import ClusterTopology
from repro.network.contention import nic_sharing_factor

__all__ = [
    "LinkModel",
    "NetworkModel",
    "SHARED_MEMORY",
    "GIGABIT_ETHERNET",
    "TEN_GIGABIT_ETHERNET",
    "INFINIBAND_4X_DDR",
    "ClusterTopology",
    "nic_sharing_factor",
]
