"""The EC2 spot market (2012 flavor).

Spot instances are spare capacity sold at a fluctuating price; users bid
a maximum and receive instances while the price stays below the bid.
The paper (§VII.B): the cc2.8xlarge spot price was about $0.54/h versus
$2.40 on demand, and "we never succeeded in establishing a full 63-host
configuration of spot request instances" — large spot requests were
partially fulfilled at best, so paid on-demand hosts topped up the
assembly ("mix").

The market model: a mean-reverting log price with occasional spikes, and
a fulfillment curve under which small requests almost always fill while
requests approaching the spare-capacity pool (a few dozen cc2.8xlarge in
one AZ) almost never fill completely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CloudError
from repro.cloud.instances import InstanceType

#: Standard deviation of one period's log-price step.
_PRICE_VOLATILITY = 0.18

@dataclass(frozen=True)
class SpotRequestResult:
    """Outcome of a spot request."""

    requested: int
    fulfilled: int
    price_hourly: float  # the market price paid (per instance)
    bid_hourly: float

    @property
    def complete(self) -> bool:
        """Whether the full request was satisfied."""
        return self.fulfilled == self.requested


class SpotMarket:
    """A per-instance-type spot market with bounded spare capacity."""

    def __init__(
        self,
        instance_type: InstanceType,
        spare_capacity_mean: float = 40.0,
        spike_probability: float = 0.06,
        seed: int = 0,
    ):
        if spare_capacity_mean <= 0:
            raise CloudError("spare capacity must be positive")
        self.instance_type = instance_type
        self.spare_capacity_mean = spare_capacity_mean
        self.spike_probability = spike_probability
        self._rng = np.random.default_rng(seed)
        self._log_price = np.log(instance_type.typical_spot_hourly)

    @property
    def base_price(self) -> float:
        """The long-run typical spot price."""
        return self.instance_type.typical_spot_hourly

    def current_price(self) -> float:
        """The current market price (advance with :meth:`step`)."""
        return float(np.exp(self._log_price))

    def step(self) -> float:
        """Advance the price one period (mean-reverting walk + spikes)."""
        target = np.log(self.base_price)
        reversion = 0.5 * (target - self._log_price)
        noise = self._rng.normal(0.0, _PRICE_VOLATILITY)
        self._log_price += reversion + noise
        if self._rng.random() < self.spike_probability:
            # A demand spike: prices can briefly exceed on-demand.
            self._log_price = np.log(
                self.instance_type.on_demand_hourly * self._rng.uniform(0.8, 1.6)
            )
        return self.current_price()

    def request(self, count: int, bid_hourly: float) -> SpotRequestResult:
        """Request ``count`` spot instances at a maximum bid.

        Fulfills ``min(count, sampled spare capacity)`` when the price is
        at or below the bid; zero otherwise.  Raises on nonsense input
        only — partial fulfillment is a *result*, not an error.
        """
        if count < 1:
            raise CloudError(f"spot request must be for >= 1 instances, got {count}")
        if bid_hourly <= 0:
            raise CloudError(f"bid must be positive, got {bid_hourly}")
        price = self.current_price()
        if price > bid_hourly:
            return SpotRequestResult(
                requested=count, fulfilled=0, price_hourly=price, bid_hourly=bid_hourly
            )
        spare = max(0, int(self._rng.poisson(self.spare_capacity_mean)))
        fulfilled = min(count, spare)
        return SpotRequestResult(
            requested=count, fulfilled=fulfilled, price_hourly=price,
            bid_hourly=bid_hourly,
        )

    def interruption_probability(self, horizon_hours: float) -> float:
        """Chance a running spot instance is reclaimed within a horizon.

        Spot instances terminate when the price exceeds the bid; for the
        typical bid-at-on-demand strategy this is the spike probability
        accumulated over the horizon.
        """
        if horizon_hours < 0:
            raise CloudError("horizon must be >= 0")
        return float(1.0 - (1.0 - self.spike_probability) ** horizon_hours)

    def reclaim_sampler(
        self,
        num_slots: int,
        interval_hours: float,
        seed: int | np.random.Generator = 0,
        replenish: bool = False,
    ) -> "ReclaimSampler":
        """A seeded reclaim trajectory over ``num_slots`` spot instances.

        This is the single source of truth for *which* spot slots die
        *when*: :meth:`CloudCluster.run_with_interruptions` draws billing
        outcomes from it, and :meth:`repro.resilience.FaultPlan.from_spot_market`
        derives the matching rank-kill events from an identically-seeded
        sampler — so the dollars and the dead ranks always agree.
        """
        return ReclaimSampler(
            num_slots=num_slots,
            probability_per_round=self.interruption_probability(interval_hours),
            seed=seed,
            replenish=replenish,
        )


class ReclaimSampler:
    """Seeded per-round Bernoulli reclaim draws over an evolving slot set.

    Each :meth:`next_round` draws one Bernoulli per alive slot, in
    ascending slot order, against ``probability_per_round``.  Reclaimed
    slots leave the pool (the paper's replacements are on-demand, hence
    unreclaimable) unless ``replenish=True``, which models strategies
    that re-enter the spot market after every reclaim.

    The draw sequence is fully determined by ``(num_slots,
    probability_per_round, seed)``, so two identically-constructed
    samplers replay the same trajectory — the invariant the resilience
    layer's billing/fault-injection agreement rests on.
    """

    def __init__(
        self,
        num_slots: int,
        probability_per_round: float,
        seed: int | np.random.Generator = 0,
        replenish: bool = False,
    ):
        if num_slots < 0:
            raise CloudError(f"num_slots must be >= 0, got {num_slots}")
        if not 0.0 <= probability_per_round <= 1.0:
            raise CloudError(
                f"probability_per_round must be in [0, 1], got {probability_per_round}"
            )
        self.num_slots = num_slots
        self.probability_per_round = probability_per_round
        self.replenish = replenish
        self._rng = np.random.default_rng(seed)
        self._alive = list(range(num_slots))
        self.round_index = 0

    @property
    def alive_slots(self) -> tuple[int, ...]:
        """Slots still in the spot pool."""
        return tuple(self._alive)

    def next_round(self) -> tuple[int, ...]:
        """Advance one interval; returns the slots reclaimed this round."""
        reclaimed = tuple(
            slot
            for slot in self._alive
            if self._rng.random() < self.probability_per_round
        )
        if not self.replenish:
            for slot in reclaimed:
                self._alive.remove(slot)
        self.round_index += 1
        return reclaimed
