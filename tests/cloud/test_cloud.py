"""Tests for the EC2 simulation: instances, images, placement, spot, billing."""

import numpy as np
import pytest

from repro.errors import BillingError, CloudError
from repro.cloud.images import BASE_CENTOS_IMAGE, precondition_image
from repro.cloud.instances import CC2_8XLARGE
from repro.cloud.billing import BillingEngine
from repro.cloud.ec2 import EC2Service
from repro.cloud.spot import SpotMarket
from repro.cloud.placement import (
    CROSS_GROUP_BACKPLANE_PENALTY,
    CROSS_GROUP_BANDWIDTH_PENALTY,
    CROSS_GROUP_LATENCY_PENALTY,
    PlacementMap,
)
from repro.harness.experiments import _mix_topology
from repro.platforms.catalog import ec2_cc28xlarge
from repro.units import HOUR


class TestInstanceCatalog:
    def test_cc28xlarge_matches_paper(self):
        """16 cores, 60.5 GB RAM, 10GbE, $2.40 on demand, ~54 cents spot."""
        t = CC2_8XLARGE
        assert t.cores == 16
        assert t.ram_gb == pytest.approx(60.5)
        assert t.on_demand_hourly == pytest.approx(2.40)
        assert t.typical_spot_hourly == pytest.approx(0.54)
        assert t.placement_groups

    def test_core_hourly_rates(self):
        """§VII.D: 15 cents/core on demand, 3.375 cents/core on spot."""
        assert CC2_8XLARGE.core_hourly() == pytest.approx(0.15)
        assert CC2_8XLARGE.core_hourly(spot=True) == pytest.approx(0.03375)


class TestImages:
    def test_base_image_is_bare(self):
        assert BASE_CENTOS_IMAGE.image_id == "ami-7ea24a17"
        assert not BASE_CENTOS_IMAGE.packages
        assert not BASE_CENTOS_IMAGE.private
        assert BASE_CENTOS_IMAGE.boot_volume_gb == 20.0

    def test_preconditioning_persists_packages_and_growth(self):
        img = precondition_image(
            BASE_CENTOS_IMAGE, {"gcc", "openmpi", "lifev"}, grow_boot_volume_gb=30.0
        )
        assert img.private
        assert {"lifev", "gcc"} <= img.packages
        assert img.boot_volume_gb == 50.0
        assert img.image_id != BASE_CENTOS_IMAGE.image_id

    def test_cannot_shrink(self):
        with pytest.raises(CloudError):
            precondition_image(BASE_CENTOS_IMAGE, set(), grow_boot_volume_gb=-1.0)

    def test_cc1_built_image_runs_on_cc2(self):
        """§VI.D: the port started on cc1.4xlarge (cc2 did not exist yet);
        the preconditioned HVM image was fully compatible with cc2."""
        image = precondition_image(BASE_CENTOS_IMAGE, {"gcc", "openmpi", "lifev"})
        assert image.hvm  # cc2.8xlarge, like cc1.4xlarge, boots HVM images


class TestPlacement:
    def test_single_group(self):
        pm = PlacementMap.single_group(5)
        assert pm.num_nodes == 5
        assert pm.cross_group_pair_fraction() == 0.0

    def test_spread_over_four_groups(self):
        pm = PlacementMap.spread(63, 4, seed=1)
        assert pm.num_nodes == 63
        assert 1 < len({pm.group_of(n).name for n in range(63)}) <= 4
        assert pm.cross_group_pair_fraction() > 0.4

    def test_cross_group_penalty_is_mild(self):
        """Table II found no significant single-group advantage; the
        cross-group fabric penalty must stay small."""
        assert 0.0 < CROSS_GROUP_LATENCY_PENALTY < 1.0
        assert 0.0 < CROSS_GROUP_BANDWIDTH_PENALTY < 0.15
        assert 0.0 < CROSS_GROUP_BACKPLANE_PENALTY < 0.15

    def test_validation(self):
        with pytest.raises(CloudError):
            PlacementMap([])
        with pytest.raises(CloudError):
            PlacementMap.spread(4, 0)
        pm = PlacementMap.single_group(2)
        with pytest.raises(CloudError):
            pm.group_of(5)


class TestSpotMarket:
    def test_price_hovers_near_base(self):
        market = SpotMarket(CC2_8XLARGE, seed=3)
        prices = [market.step() for _ in range(300)]
        median = float(np.median(prices))
        assert 0.3 < median < 1.1  # around the $0.54 base

    def test_spikes_can_exceed_on_demand(self):
        market = SpotMarket(CC2_8XLARGE, seed=5, spike_probability=0.3)
        prices = [market.step() for _ in range(200)]
        assert max(prices) > CC2_8XLARGE.on_demand_hourly * 0.8

    def test_low_bid_gets_nothing(self):
        market = SpotMarket(CC2_8XLARGE, seed=0)
        result = market.request(10, bid_hourly=0.01)
        assert result.fulfilled == 0
        assert not result.complete

    def test_small_requests_usually_fill(self):
        market = SpotMarket(CC2_8XLARGE, seed=1)
        wins = sum(
            market.request(4, bid_hourly=CC2_8XLARGE.on_demand_hourly).complete
            for _ in range(50)
        )
        assert wins > 40

    def test_63_node_spot_requests_never_fill(self):
        """§VII.B: 'we never succeeded in establishing a full 63-host
        configuration of spot request instances.'"""
        market = SpotMarket(CC2_8XLARGE, seed=2)
        complete = sum(
            market.request(63, bid_hourly=CC2_8XLARGE.on_demand_hourly).complete
            for _ in range(100)
        )
        assert complete == 0

    def test_interruption_probability_monotone(self):
        market = SpotMarket(CC2_8XLARGE, seed=0)
        assert market.interruption_probability(0) == 0.0
        assert market.interruption_probability(1) < market.interruption_probability(10)

    def test_validation(self):
        market = SpotMarket(CC2_8XLARGE, seed=0)
        with pytest.raises(CloudError):
            market.request(0, 1.0)
        with pytest.raises(CloudError):
            market.request(1, 0.0)
        with pytest.raises(CloudError):
            SpotMarket(CC2_8XLARGE, spare_capacity_mean=0)


class TestBilling:
    def test_fractional_and_rounded_hours(self):
        engine = BillingEngine()
        bill = engine.open_bill("i-1", CC2_8XLARGE, 2.40)
        bill.accrue(1800.0)  # half an hour
        assert bill.cost() == pytest.approx(1.20)
        assert bill.cost(round_up_hours=True) == pytest.approx(2.40)

    def test_whole_cluster_accrual(self):
        engine = BillingEngine()
        for i in range(3):
            engine.open_bill(f"i-{i}", CC2_8XLARGE, 2.40)
        engine.accrue_all(HOUR)
        assert engine.total_cost() == pytest.approx(3 * 2.40)
        engine.stop_all()
        assert engine.live_count() == 0

    def test_stop_semantics(self):
        engine = BillingEngine()
        bill = engine.open_bill("i-1", CC2_8XLARGE, 2.40)
        bill.stop()
        with pytest.raises(BillingError):
            bill.stop()
        with pytest.raises(BillingError):
            bill.accrue(10.0)

    def test_duplicate_bill_rejected(self):
        engine = BillingEngine()
        engine.open_bill("i-1", CC2_8XLARGE, 2.40)
        with pytest.raises(BillingError):
            engine.open_bill("i-1", CC2_8XLARGE, 2.40)


class TestEC2Service:
    def test_on_demand_assembly(self):
        svc = EC2Service(seed=0)
        cluster = svc.assemble_on_demand(63)
        assert cluster.num_nodes == 63
        assert sum(i.instance_type.cores for i in cluster.instances) == 1008
        assert cluster.spot_fraction() == 0.0
        assert {cluster.placement.group_of(n).name for n in range(63)} == {"pg0"}
        assert cluster.hourly_price == pytest.approx(63 * 2.40)

    def test_mix_assembly_tops_up_with_paid(self):
        """§VII.B: spot fills part of the 63; on-demand covers the rest."""
        svc = EC2Service(seed=1)
        cluster = svc.assemble_mix(63, seed=1)
        assert cluster.num_nodes == 63
        assert 0.0 < cluster.spot_fraction() < 1.0
        assert cluster.hourly_price < 63 * 2.40
        assert len({cluster.placement.group_of(n).name for n in range(63)}) > 1

    def test_mix_cheaper_than_full(self):
        svc = EC2Service(seed=2)
        full = svc.assemble_on_demand(32)
        mix = EC2Service(seed=2).assemble_mix(32, seed=2)
        assert mix.hourly_price < full.hourly_price

    def test_topology_exposes_placement_distances(self):
        """A mix assembly's topology pays the cross-group penalty,
        weighted by its cross-group pair fraction, on every internode
        message and on the backplane."""
        seed = 3
        frac = EC2Service(seed=seed).assemble_mix(8, seed=seed) \
            .placement.cross_group_pair_fraction()
        assert frac > 0.0
        network = _mix_topology(8, seed=seed).network
        base = ec2_cc28xlarge.interconnect
        link = network.link_between(0, 1)
        assert link is network.internode
        assert link.latency == base.latency * (1.0 + CROSS_GROUP_LATENCY_PENALTY * frac)
        assert link.bandwidth == base.bandwidth * (1.0 - CROSS_GROUP_BANDWIDTH_PENALTY * frac)
        assert link.latency > base.latency and link.bandwidth < base.bandwidth
        assert network.aggregate_backplane == ec2_cc28xlarge.backplane_bandwidth * (
            1.0 - CROSS_GROUP_BACKPLANE_PENALTY * frac
        )

    def test_run_and_terminate_billing(self):
        svc = EC2Service(seed=5)
        cluster = svc.assemble_on_demand(4)
        cost = cluster.run_for(HOUR / 2)
        assert cost == pytest.approx(4 * 1.20)
        final = cluster.terminate()
        assert final == cost
        with pytest.raises(BillingError):
            cluster.run_for(10.0)

    def test_capacity_limits(self):
        svc = EC2Service(on_demand_capacity=10, seed=6)
        with pytest.raises(CloudError):
            svc.assemble_on_demand(11)

    def test_validation(self):
        svc = EC2Service(seed=7)
        with pytest.raises(CloudError):
            svc.assemble_on_demand(0)
        with pytest.raises(CloudError):
            svc.assemble_mix(0)
