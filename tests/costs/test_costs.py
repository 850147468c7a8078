"""Tests for the per-platform cost models."""

import pytest

from repro.errors import CostModelError
from repro.costs.model import PlatformCostModel, cost_per_iteration
from repro.platforms.catalog import all_platforms, ec2_cc28xlarge, puma
from repro.units import HOUR


class TestPlatformCostModel:
    def test_core_hour_platforms_bill_exact_cores(self):
        model = PlatformCostModel.for_platform(puma)
        assert model.billed_cores(1) == 1
        assert model.billed_cores(125) == 125
        assert model.cost(125, HOUR) == pytest.approx(125 * 0.023)

    def test_ec2_bills_whole_nodes(self):
        """1 rank on EC2 still pays 16 cores (§VII.D: 'this price
        increases if not all cores are utilized')."""
        model = PlatformCostModel.for_platform(ec2_cc28xlarge)
        assert model.billed_cores(1) == 16
        assert model.billed_cores(8) == 16
        assert model.billed_cores(16) == 16
        assert model.billed_cores(17) == 32
        assert model.billed_cores(1000) == 63 * 16

    def test_table2_cost_shape(self):
        """Reproduce Table II row 1000: 63 nodes, 162.09 s -> $6.81."""
        model = PlatformCostModel.for_platform(ec2_cc28xlarge)
        cost = model.cost(1000, 162.09)
        assert cost == pytest.approx(6.8078, abs=5e-3)

    def test_table2_mix_estimate(self):
        """Row 1000 'mix': 148.98 s at the spot rate -> $1.41."""
        est = cost_per_iteration(
            ec2_cc28xlarge, 1000, 148.98, core_hour_rate=0.03375
        )
        assert est == pytest.approx(1.4079, abs=5e-3)

    def test_with_rate(self):
        model = PlatformCostModel.for_platform(ec2_cc28xlarge).with_rate(0.03375)
        assert model.cost(1000, HOUR) == pytest.approx(63 * 16 * 0.03375)

    def test_validation(self):
        model = PlatformCostModel.for_platform(puma)
        with pytest.raises(CostModelError):
            model.billed_cores(0)
        with pytest.raises(CostModelError):
            model.cost(4, -1.0)
        with pytest.raises(CostModelError):
            model.with_rate(-0.1)


class TestCostPerIteration:
    def test_platform_ordering_at_full_node_use(self):
        """Same iteration time, 16 ranks: puma cheapest, lagrange dearest."""
        t = 10.0
        costs = {
            p.name: cost_per_iteration(p, 16, t) for p in all_platforms()
        }
        assert costs["puma"] < costs["ellipse"] < costs["ec2"] < costs["lagrange"]

    def test_ec2_penalty_below_node_size(self):
        """At 1 rank, EC2's effective per-core rate is 16x its nominal."""
        one = cost_per_iteration(ec2_cc28xlarge, 1, 100.0)
        sixteen = cost_per_iteration(ec2_cc28xlarge, 16, 100.0)
        assert one == pytest.approx(sixteen)

    def test_spot_rate_override(self):
        full = cost_per_iteration(ec2_cc28xlarge, 64, 100.0)
        spot = cost_per_iteration(ec2_cc28xlarge, 64, 100.0, core_hour_rate=0.03375)
        assert spot == pytest.approx(full * 0.03375 / 0.15)
