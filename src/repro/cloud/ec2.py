"""The EC2 service facade: request, assemble, run, terminate.

Ties the instance catalog, images, placement groups, spot market and
billing together into the two assembly styles Table II compares:

* ``assemble_on_demand`` — fully paid instances in a single placement
  group ("full");
* ``assemble_mix`` — as many spot instances as the market yields (spread
  over several placement groups) topped up with on-demand instances
  ("mix").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import CloudError
from repro.cloud.billing import BillingEngine
from repro.cloud.images import BASE_CENTOS_IMAGE, MachineImage
from repro.cloud.instances import CC2_8XLARGE, InstanceType
from repro.cloud.placement import PlacementGroup, PlacementMap
from repro.cloud.spot import SpotMarket

#: Placement groups a mix assembly's nodes spread over: Table II's spot
#: requests landed in four.
MIX_PLACEMENT_GROUPS = 4

_instance_ids = itertools.count(1)


@dataclass(frozen=True)
class InterruptedRunOutcome:
    """Result of a run under spot-reclaim risk."""

    useful_seconds: float
    wall_seconds: float
    interruptions: int
    cost: float
    reclaim_rounds: tuple = ()  # 0-based wall-clock interval indices with a reclaim


@dataclass(frozen=True)
class Instance:
    """A launched EC2 instance."""

    instance_id: str
    instance_type: InstanceType
    image: MachineImage
    pricing: str  # "on_demand" | "spot"
    hourly_price: float
    placement_group: PlacementGroup
    intranet_ip: str


@dataclass
class CloudCluster:
    """An assembly of instances acting as one cluster."""

    instances: list[Instance]
    placement: PlacementMap
    billing: BillingEngine = field(default_factory=BillingEngine)

    def __post_init__(self) -> None:
        if not self.instances:
            raise CloudError("a cluster needs at least one instance")
        if self.placement.num_nodes != len(self.instances):
            raise CloudError("placement map size != instance count")
        for inst in self.instances:
            self.billing.open_bill(inst.instance_id, inst.instance_type, inst.hourly_price)

    @property
    def num_nodes(self) -> int:
        """Instance count."""
        return len(self.instances)

    @property
    def hourly_price(self) -> float:
        """Total dollars per hour while the assembly runs."""
        return sum(i.hourly_price for i in self.instances)

    def spot_fraction(self) -> float:
        """Fraction of instances obtained from the spot market."""
        spot = sum(1 for i in self.instances if i.pricing == "spot")
        return spot / len(self.instances)

    def run_for(self, seconds: float) -> float:
        """Accrue a run of ``seconds`` on every instance; returns the cost."""
        from repro.errors import BillingError

        if self.billing.live_count() == 0:
            raise BillingError("cluster already terminated")
        self.billing.accrue_all(seconds)
        return self.billing.total_cost()

    def terminate(self) -> float:
        """Stop all instances; returns the final cost."""
        self.billing.stop_all()
        return self.billing.total_cost()

    def run_with_interruptions(
        self,
        seconds: float,
        spot_market,
        seed: int = 0,
        checkpoint_interval_s: float = 3600.0,
    ) -> "InterruptedRunOutcome":
        """Run for ``seconds`` of useful work under spot-reclaim risk.

        Each checkpoint interval, every spot instance may be reclaimed
        (probability from the market's spike model, drawn through the
        market's :meth:`~repro.cloud.spot.SpotMarket.reclaim_sampler` —
        the same seeded trajectory the resilience layer turns into rank
        kills).  A reclaim voids the interval's progress for the whole
        bulk-synchronous job; the lost instance is replaced by an
        on-demand one (the paper's experience of topping up with
        regularly-priced hosts).  Billing accrues through the normal
        engine, including the wasted intervals.
        """
        from repro.errors import CloudError

        if seconds <= 0 or checkpoint_interval_s <= 0:
            raise CloudError("run length and checkpoint interval must be positive")
        interval_h = checkpoint_interval_s / 3600.0
        useful = 0.0
        wall = 0.0
        interruptions = 0
        spot_ids = [
            inst.instance_id for inst in self.instances if inst.pricing == "spot"
        ]
        sampler = spot_market.reclaim_sampler(len(spot_ids), interval_h, seed)
        reclaim_rounds: list[int] = []
        while useful < seconds:
            chunk = min(checkpoint_interval_s, seconds - useful)
            self.billing.accrue_all(chunk)
            wall += chunk
            round_index = sampler.round_index
            reclaimed_slots = sampler.next_round()
            if reclaimed_slots:
                reclaim_rounds.append(round_index)
                interruptions += len(reclaimed_slots)
                for slot in reclaimed_slots:
                    iid = spot_ids[slot]
                    self.billing.bills[iid].stop()
                    # Replacement on-demand instance joins the assembly.
                    self.billing.open_bill(
                        f"{iid}-replacement",
                        self.instances[0].instance_type,
                        self.instances[0].instance_type.on_demand_hourly,
                    )
                # The interval's progress is lost (restart from checkpoint).
                continue
            useful += chunk
        return InterruptedRunOutcome(
            useful_seconds=useful,
            wall_seconds=wall,
            interruptions=interruptions,
            cost=self.billing.total_cost(),
            reclaim_rounds=tuple(reclaim_rounds),
        )


#: On-demand instances the service can launch at once.
ON_DEMAND_CAPACITY = 200


class EC2Service:
    """The simulated IaaS endpoint."""

    def __init__(
        self,
        instance_type: InstanceType = CC2_8XLARGE,
        image: MachineImage = BASE_CENTOS_IMAGE,
        spot_market: SpotMarket | None = None,
        seed: int = 0,
    ):
        self.instance_type = instance_type
        self.image = image
        self.spot_market = spot_market or SpotMarket(instance_type, seed=seed)
        self._launched = 0
        self._ip_counter = itertools.count(10)

    def _next_ip(self) -> str:
        n = next(self._ip_counter)
        return f"10.17.{n // 256}.{n % 256}"

    def _launch(
        self, count: int, pricing: str, hourly_price: float, group: PlacementGroup
    ) -> list[Instance]:
        if self._launched + count > ON_DEMAND_CAPACITY + 10_000:
            raise CloudError("service capacity exhausted")
        out = []
        for _ in range(count):
            out.append(
                Instance(
                    instance_id=f"i-{next(_instance_ids):07x}",
                    instance_type=self.instance_type,
                    image=self.image,
                    pricing=pricing,
                    hourly_price=hourly_price,
                    placement_group=group,
                    intranet_ip=self._next_ip(),
                )
            )
        self._launched += count
        return out

    def assemble_on_demand(self, num_nodes: int) -> CloudCluster:
        """Table II's 'full' column: paid instances, single placement group."""
        if num_nodes < 1:
            raise CloudError(f"need >= 1 node, got {num_nodes}")
        if num_nodes > ON_DEMAND_CAPACITY:
            raise CloudError(
                f"requested {num_nodes} on-demand instances; capacity is "
                f"{ON_DEMAND_CAPACITY}"
            )
        placement = PlacementMap.single_group(num_nodes)
        group = placement.group_of(0)
        instances = self._launch(
            num_nodes, "on_demand", self.instance_type.on_demand_hourly, group
        )
        return CloudCluster(instances=instances, placement=placement)

    def assemble_mix(self, num_nodes: int, seed: int = 0) -> CloudCluster:
        """Table II's 'mix': spot instances (as many as the market gives,
        spread over ``MIX_PLACEMENT_GROUPS`` placement groups) topped up
        with paid on-demand instances.  Spot requests bid the on-demand
        price.

        The paper: "we were compelled to add regularly-priced hosts to
        spot-request hosts to obtain the size configuration needed."
        """
        if num_nodes < 1:
            raise CloudError(f"need >= 1 node, got {num_nodes}")
        spot_result = self.spot_market.request(
            num_nodes, self.instance_type.on_demand_hourly
        )
        spot_count = spot_result.fulfilled
        paid_count = num_nodes - spot_count
        if paid_count > ON_DEMAND_CAPACITY:
            raise CloudError("cannot top up the mix: on-demand capacity exhausted")

        placement = PlacementMap.spread(num_nodes, MIX_PLACEMENT_GROUPS, seed=seed)
        instances: list[Instance] = []
        for node in range(spot_count):
            instances.extend(
                self._launch(1, "spot", spot_result.price_hourly, placement.group_of(node))
            )
        for node in range(spot_count, num_nodes):
            instances.extend(
                self._launch(
                    1, "on_demand", self.instance_type.on_demand_hourly,
                    placement.group_of(node),
                )
            )
        return CloudCluster(instances=instances, placement=placement)
