"""The checkpoint-overhead and expected-rework model."""

import math

import pytest

from repro.cloud.instances import CC2_8XLARGE
from repro.cloud.spot import SpotMarket
from repro.errors import CostModelError
from repro.perfmodel.resilience import (
    CheckpointRestartModel,
    failure_rate_from_market,
)

pytestmark = pytest.mark.resilience


class TestCheckpointRestartModel:
    def test_no_failures_only_checkpoint_overhead(self):
        model = CheckpointRestartModel(
            checkpoint_seconds=30.0, restart_seconds=120.0,
            failure_rate_per_hour=0.0,
        )
        wall = model.expected_wall_seconds(3600.0, 600.0)
        assert wall == pytest.approx(3600.0 * (1.0 + 30.0 / 600.0))
        assert model.optimal_interval_seconds() == math.inf

    def test_overhead_grows_with_failure_rate(self):
        base, tau = 7200.0, 600.0
        walls = [
            CheckpointRestartModel(30.0, 120.0, lam).expected_wall_seconds(base, tau)
            for lam in (0.0, 0.5, 1.0, 2.0)
        ]
        assert walls == sorted(walls)
        assert walls[-1] > walls[0]

    def test_young_interval_minimizes_overhead(self):
        model = CheckpointRestartModel(
            checkpoint_seconds=20.0, restart_seconds=60.0,
            failure_rate_per_hour=1.5,
        )
        tau_star = model.optimal_interval_seconds()
        assert tau_star == pytest.approx(math.sqrt(2 * 20.0 / (1.5 / 3600.0)))
        best = model.expected_overhead_fraction(3600.0, tau_star)
        for factor in (0.25, 0.5, 2.0, 4.0):
            assert model.expected_overhead_fraction(3600.0, tau_star * factor) >= best

    def test_too_failure_prone_raises(self):
        model = CheckpointRestartModel(
            checkpoint_seconds=10.0, restart_seconds=300.0,
            failure_rate_per_hour=10.0,
        )
        with pytest.raises(CostModelError, match="failure rate too high"):
            # rework per failure ~ 1800s at 10/h: no forward progress
            model.expected_wall_seconds(3600.0, 3600.0)

    def test_input_validation(self):
        with pytest.raises(CostModelError):
            CheckpointRestartModel(-1.0, 0.0, 0.0)
        with pytest.raises(CostModelError):
            CheckpointRestartModel(1.0, 1.0, -0.5)
        model = CheckpointRestartModel(1.0, 1.0, 0.1)
        with pytest.raises(CostModelError):
            model.checkpoint_overhead_fraction(0.0)
        with pytest.raises(CostModelError):
            model.expected_wall_seconds(0.0, 600.0)


class TestMarketCoupling:
    def test_failure_rate_scales_with_spot_count(self):
        market = SpotMarket(CC2_8XLARGE, spike_probability=0.06, seed=0)
        assert failure_rate_from_market(market, 0) == 0.0
        assert failure_rate_from_market(market, 10) == pytest.approx(0.6)
        with pytest.raises(CostModelError):
            failure_rate_from_market(market, -1)

    def test_paper_discount_survives_moderate_volatility(self):
        """At the paper's 4.4x spot discount, reclaim overhead at the
        default market volatility does not erase the savings."""
        market = SpotMarket(CC2_8XLARGE, seed=0)  # default 6% spikes
        model = CheckpointRestartModel(
            checkpoint_seconds=30.0, restart_seconds=120.0,
            failure_rate_per_hour=failure_rate_from_market(market, 8),
        )
        base = 2 * 3600.0
        tau = min(model.optimal_interval_seconds(), 1800.0)
        wall = model.expected_wall_seconds(base, tau)
        spot = CC2_8XLARGE.typical_spot_hourly * wall / 3600.0
        on_demand = CC2_8XLARGE.on_demand_hourly * base / 3600.0
        assert spot < on_demand
