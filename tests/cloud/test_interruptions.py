"""Tests for spot-reclaim behaviour during cluster runs."""

import pytest

from repro.errors import CloudError
from repro.cloud.instances import CC2_8XLARGE
from repro.cloud.ec2 import EC2Service
from repro.cloud.spot import SpotMarket
from repro.units import HOUR


def make_market(spike):
    return SpotMarket(CC2_8XLARGE, seed=0, spike_probability=spike)


class TestInterruptedRuns:
    def test_on_demand_assembly_never_interrupted(self):
        cluster = EC2Service(seed=1).assemble_on_demand(4)
        outcome = cluster.run_with_interruptions(
            4 * HOUR, make_market(spike=0.9), seed=1
        )
        assert outcome.interruptions == 0
        assert outcome.wall_seconds == outcome.useful_seconds
        assert outcome.cost == pytest.approx(4 * 2.40 * 4)

    def test_calm_market_spot_run_completes_cheap(self):
        cluster = EC2Service(seed=2).assemble_mix(8, seed=2)
        outcome = cluster.run_with_interruptions(
            2 * HOUR, make_market(spike=0.0), seed=2
        )
        assert outcome.interruptions == 0
        assert outcome.useful_seconds == 2 * HOUR
        assert outcome.cost < 8 * 2.40 * 2  # cheaper than all on-demand

    def test_volatile_market_causes_reclaims_and_overhead(self):
        cluster = EC2Service(seed=3).assemble_mix(8, seed=3)
        assert cluster.spot_fraction() > 0
        outcome = cluster.run_with_interruptions(
            6 * HOUR, make_market(spike=0.5), seed=3
        )
        assert outcome.interruptions > 0
        assert outcome.wall_seconds > outcome.useful_seconds
        assert outcome.useful_seconds == 6 * HOUR  # it still finishes

    def test_reclaimed_instances_replaced_on_demand(self):
        cluster = EC2Service(seed=4).assemble_mix(8, seed=4)
        before = cluster.billing.live_count()
        outcome = cluster.run_with_interruptions(
            6 * HOUR, make_market(spike=0.5), seed=4
        )
        # Replacements keep the live count constant.
        assert cluster.billing.live_count() == before
        assert any(
            "replacement" in iid for iid in cluster.billing.bills
        ) == (outcome.interruptions > 0)

    def test_interruptions_cost_more_than_calm_runs(self):
        calm = EC2Service(seed=5).assemble_mix(8, seed=5)
        calm_cost = calm.run_with_interruptions(
            6 * HOUR, make_market(spike=0.0), seed=5
        ).cost
        stormy = EC2Service(seed=5).assemble_mix(8, seed=5)
        stormy_outcome = stormy.run_with_interruptions(
            6 * HOUR, make_market(spike=0.5), seed=5
        )
        assert stormy_outcome.interruptions > 0
        assert stormy_outcome.cost > calm_cost

    def test_validation(self):
        cluster = EC2Service(seed=6).assemble_on_demand(2)
        with pytest.raises(CloudError):
            cluster.run_with_interruptions(0.0, make_market(0.1))
        with pytest.raises(CloudError):
            cluster.run_with_interruptions(10.0, make_market(0.1),
                                           checkpoint_interval_s=0.0)
