"""Placement groups: EC2's network-aware host allocation.

Instances inside one placement group are allocated close together on the
10 GbE fabric; instances in different groups (but the same availability
zone) see somewhat higher latency and slightly lower bandwidth.  The
penalty is deliberately mild: the paper's Table II measured that a fully
paid single-group 63-node assembly showed *no* significant performance
benefit over a spot-mix spread across four groups — so the model's
cross-group penalties must (and do) keep the two configurations within a
few percent of each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CloudError

#: Cross-group fabric penalty of an assembly whose node pairs all straddle
#: groups: the internode latency grows, and the internode bandwidth and the
#: fabric's aggregate backplane shrink, by these fractions.  An assembly
#: pays them weighted by its :meth:`PlacementMap.cross_group_pair_fraction`
#: (``harness.experiments._mix_topology``).
CROSS_GROUP_LATENCY_PENALTY = 0.35
CROSS_GROUP_BANDWIDTH_PENALTY = 0.07
CROSS_GROUP_BACKPLANE_PENALTY = 0.05


@dataclass(frozen=True)
class PlacementGroup:
    """A named placement group in one availability zone."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise CloudError("placement group needs a name")


class PlacementMap:
    """node index -> placement group."""

    def __init__(self, assignments: list[PlacementGroup]):
        if not assignments:
            raise CloudError("placement map needs at least one node")
        self._groups = list(assignments)

    @classmethod
    def single_group(cls, num_nodes: int) -> "PlacementMap":
        """All nodes in one group — the paper's 'full' configuration."""
        group = PlacementGroup("pg0")
        return cls([group] * num_nodes)

    @classmethod
    def spread(
        cls, num_nodes: int, num_groups: int, seed: int = 0
    ) -> "PlacementMap":
        """Nodes spread over ``num_groups`` groups (the 'mix' configuration:
        spot + on-demand instances landed in four different groups)."""
        if num_groups < 1:
            raise CloudError(f"need at least one group, got {num_groups}")
        groups = [PlacementGroup(f"pg{i}") for i in range(num_groups)]
        rng = np.random.default_rng(seed)
        picks = rng.integers(0, num_groups, size=num_nodes)
        return cls([groups[int(i)] for i in picks])

    @property
    def num_nodes(self) -> int:
        """Number of placed nodes."""
        return len(self._groups)

    def group_of(self, node: int) -> PlacementGroup:
        """The placement group of one node."""
        if not (0 <= node < len(self._groups)):
            raise CloudError(f"node {node} outside placement map of {len(self._groups)}")
        return self._groups[node]

    def same_group(self, node_a: int, node_b: int) -> bool:
        """Whether two nodes share a placement group."""
        return self.group_of(node_a).name == self.group_of(node_b).name

    def cross_group_pair_fraction(self) -> float:
        """Fraction of node pairs that straddle groups: the weight of the
        cross-group penalty."""
        n = self.num_nodes
        if n < 2:
            return 0.0
        cross = sum(
            0 if self.same_group(a, b) else 1
            for a in range(n)
            for b in range(a + 1, n)
        )
        return cross / (n * (n - 1) / 2)
