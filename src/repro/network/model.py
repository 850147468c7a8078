"""Alpha-beta link models and fabric presets.

A transfer of ``n`` bytes over a link costs ``alpha + n / beta`` seconds
(latency plus serialization).  Preset parameters follow the published
characteristics of the paper's fabrics:

* 1 GbE (puma, ellipse): ~50 us MPI latency, ~118 MB/s effective;
* InfiniBand 4X DDR (lagrange): 20 Gb/s signal -> ~1.9 GB/s effective
  payload bandwidth, ~2.5 us latency;
* 10 GbE on EC2 cluster instances: high bandwidth but virtualization
  keeps latency near 1 GbE levels (~90 us), the single most important
  fact behind the EC2 curves in Figures 4-5;
* shared memory for ranks on the same node.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NetworkError
from repro.units import gbit_per_s, mbyte_per_s, microseconds


@dataclass(frozen=True)
class LinkModel:
    """One link: latency (s), bandwidth (bytes/s) and a display name."""

    name: str
    latency: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise NetworkError(f"latency must be >= 0, got {self.latency}")
        if self.bandwidth <= 0:
            raise NetworkError(f"bandwidth must be > 0, got {self.bandwidth}")

    def transfer_time(self, num_bytes: float, concurrency: int = 1) -> float:
        """Time for one message of ``num_bytes``.

        ``concurrency`` models NIC sharing: that many flows traverse the
        same adapter simultaneously, so each sees ``bandwidth /
        concurrency``.
        """
        if num_bytes < 0:
            raise NetworkError(f"message size must be >= 0, got {num_bytes}")
        if concurrency < 1:
            raise NetworkError(f"concurrency must be >= 1, got {concurrency}")
        return self.latency + num_bytes * concurrency / self.bandwidth

    def scaled(self, latency_factor: float = 1.0, bandwidth_factor: float = 1.0) -> "LinkModel":
        """A derived link with scaled parameters (e.g. cross-placement-group)."""
        return LinkModel(
            name=f"{self.name}*",
            latency=self.latency * latency_factor,
            bandwidth=self.bandwidth * bandwidth_factor,
        )


SHARED_MEMORY = LinkModel("shm", latency=microseconds(0.6), bandwidth=gbit_per_s(40))

GIGABIT_ETHERNET = LinkModel(
    "1GbE", latency=microseconds(50.0), bandwidth=mbyte_per_s(118.0)
)

TEN_GIGABIT_ETHERNET = LinkModel(
    "10GbE-ec2", latency=microseconds(90.0), bandwidth=gbit_per_s(9.0)
)

INFINIBAND_4X_DDR = LinkModel(
    "IB-4X-DDR", latency=microseconds(2.5), bandwidth=gbit_per_s(15.2)
)


class NetworkModel:
    """Pairwise transfer costs between ranks placed on a topology.

    Combines an intra-node link and an inter-node link.

    ``aggregate_backplane`` (bytes/s, optional) is the *effective*
    fabric-wide capacity under bulk-synchronous many-to-many load: the
    congestion model the analytic phase predictor uses.  Oversubscribed
    switch trees (campus 1 GbE) and the 2012 multi-tenant EC2 network
    saturate far below per-link line rate once every node transmits at
    once; full-bisection InfiniBand fat-trees effectively do not.  None
    means unconstrained.
    """

    def __init__(
        self,
        internode: LinkModel,
        intranode: LinkModel = SHARED_MEMORY,
        aggregate_backplane: float | None = None,
    ):
        if aggregate_backplane is not None and aggregate_backplane <= 0:
            raise NetworkError(
                f"aggregate_backplane must be positive, got {aggregate_backplane}"
            )
        self.internode = internode
        self.intranode = intranode
        self.aggregate_backplane = aggregate_backplane

    def link_between(self, node_a: int, node_b: int) -> LinkModel:
        """The link model connecting two nodes (same node -> shared memory)."""
        if node_a == node_b:
            return self.intranode
        return self.internode

    def transfer_time(
        self, num_bytes: float, node_a: int, node_b: int, concurrency: int = 1
    ) -> float:
        """Transfer time for one message between two placed ranks."""
        link = self.link_between(node_a, node_b)
        if node_a == node_b:
            concurrency = 1  # shared memory does not share the NIC
        return link.transfer_time(num_bytes, concurrency)

    def __repr__(self) -> str:
        return f"NetworkModel(internode={self.internode.name}, intranode={self.intranode.name})"
