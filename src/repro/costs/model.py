"""Per-platform dollar-cost models (§VII.D).

* puma — 2.3 cents per core-hour, an amortization of capital and
  operating expenses (no money actually changes hands);
* ellipse — 5 cents per core-hour, flat fee-for-use;
* lagrange — EUR 0.15 -> 19.19 cents per core-hour;
* ec2 — $2.40 per cc2.8xlarge instance-hour on demand (15 cents/core
  when all 16 cores are used) or ~$0.54 spot (3.375 cents/core), with
  *whole-node* charging: idle cores on an allocated instance still bill.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CostModelError
from repro.platforms.spec import PlatformSpec
from repro.units import HOUR

# The value of an experienced developer's hour, used to convert porting
# effort (§VI man-hours) to dollars; a round 2012 figure.
DEVELOPER_HOURLY_RATE = 50.0


@dataclass(frozen=True)
class PlatformCostModel:
    """Billing rules for one platform."""

    name: str
    core_hour_rate: float  # dollars per core-hour
    charges_whole_nodes: bool
    cores_per_node: int

    @classmethod
    def for_platform(cls, platform: PlatformSpec) -> "PlatformCostModel":
        """Extract the billing rules from a platform spec."""
        return cls(
            name=platform.name,
            core_hour_rate=platform.cost_per_core_hour,
            charges_whole_nodes=platform.charges_whole_nodes,
            cores_per_node=platform.cores_per_node,
        )

    def billed_cores(self, num_ranks: int) -> int:
        """Cores billed for a job of ``num_ranks`` (one rank per core).

        Whole-node platforms round the core count up to full nodes — the
        mechanism that inflates EC2's cost at 1 and 8 processes in
        Figures 6-7.
        """
        if num_ranks < 1:
            raise CostModelError(f"num_ranks must be >= 1, got {num_ranks}")
        if not self.charges_whole_nodes:
            return num_ranks
        nodes = -(-num_ranks // self.cores_per_node)
        return nodes * self.cores_per_node

    def cost(self, num_ranks: int, duration_s: float) -> float:
        """Dollar cost of running ``num_ranks`` for ``duration_s`` seconds."""
        if duration_s < 0:
            raise CostModelError(f"duration must be >= 0, got {duration_s}")
        return self.billed_cores(num_ranks) * self.core_hour_rate * duration_s / HOUR

    def with_rate(self, core_hour_rate: float) -> "PlatformCostModel":
        """The same billing shape at a different rate (spot pricing)."""
        if core_hour_rate < 0:
            raise CostModelError(f"negative rate {core_hour_rate}")
        return PlatformCostModel(
            name=f"{self.name}(rate={core_hour_rate:.4f})",
            core_hour_rate=core_hour_rate,
            charges_whole_nodes=self.charges_whole_nodes,
            cores_per_node=self.cores_per_node,
        )


def cost_per_iteration(
    platform: PlatformSpec, num_ranks: int, iteration_time_s: float,
    core_hour_rate: float | None = None,
) -> float:
    """Dollar cost of one solver iteration (the y-axis of Figures 6-7).

    ``core_hour_rate`` overrides the platform rate (used for the spot
    price and for the 'mix' strategy curve).
    """
    model = PlatformCostModel.for_platform(platform)
    if core_hour_rate is not None:
        model = model.with_rate(core_hour_rate)
    return model.cost(num_ranks, iteration_time_s)
