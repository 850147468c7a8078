"""NIC contention: bandwidth sharing between concurrent flows.

When several ranks on the same node exchange halos with off-node peers
simultaneously (the norm in a bulk-synchronous FEM solve), they share
one network adapter.  A 4-core puma node with all four ranks active
divides its 1 GbE between four flows; a 16-core cc2.8xlarge divides
10 GbE between sixteen — but because the EC2 node hosts 16 ranks, many
more halo partners are *intra-node* and never touch the NIC at all.
This trade-off is the mechanism behind the paper's observation that the
"on-demand assembly exploits notably fewer hosts hence the smaller
volume of data is exchanged by the 10GbE network".
"""

from __future__ import annotations

from repro.errors import NetworkError
from repro.network.topology import ClusterTopology


def nic_sharing_factor(
    topology: ClusterTopology, num_ranks: int, offnode_fraction: float | None = None
) -> float:
    """Expected number of flows sharing a NIC during a halo exchange.

    ``offnode_fraction`` is the fraction of each rank's communication
    partners that are off-node; by default it is estimated for a cubic
    process grid embedded in the node layout (each rank has up to 6 face
    neighbours; the share of them crossing the node boundary grows as
    nodes hold fewer ranks).
    """
    if num_ranks < 1:
        raise NetworkError(f"num_ranks must be >= 1, got {num_ranks}")
    ranks_per_node = min(topology.cores_per_node, num_ranks)
    if offnode_fraction is None:
        offnode_fraction = estimate_offnode_fraction(topology, num_ranks)
    if not (0.0 <= offnode_fraction <= 1.0):
        raise NetworkError(
            f"offnode_fraction must be in [0, 1], got {offnode_fraction}"
        )
    return max(1.0, ranks_per_node * offnode_fraction)


def estimate_offnode_fraction(topology: ClusterTopology, num_ranks: int) -> float:
    """Estimated fraction of face-neighbour traffic leaving the node.

    A node holding ``c`` ranks of a cubic process grid keeps roughly the
    face-internal pairs of a ``c``-rank sub-block in shared memory.  For
    a block of ``c`` ranks arranged as compactly as possible, the
    surface-to-total ratio of its dual edges approximates the off-node
    share.  We use the standard isoperimetric estimate: an ideal cubic
    block of ``c`` ranks has ``3 c^{2/3}`` internal-face-pairs... in
    practice the simple model ``1 - (c - 1) / (6 c^{1/3} ... )`` is
    noisy, so we use the clean bound: a compact block of ``c`` ranks has
    about ``6 c^{2/3}`` outward faces of its ``6c`` total rank-faces,
    i.e. an off-node fraction of ``min(1, c^{-1/3})``.
    """
    if num_ranks <= 1:
        return 0.0
    ranks_per_node = min(topology.cores_per_node, num_ranks)
    if num_ranks <= topology.cores_per_node:
        return 0.0  # single-node run: everything is shared memory
    return min(1.0, ranks_per_node ** (-1.0 / 3.0))
