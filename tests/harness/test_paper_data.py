"""Consistency tests between the transcribed paper data and the models."""

import pytest

from repro.harness.paper_data import (
    PAPER_COST_RATES,
    PAPER_EC2_NODE_HOURLY,
    PAPER_EC2_SPOT_HOURLY,
    PAPER_ELEMENTS_PER_RANK,
    PAPER_MAX_RANKS,
    PAPER_RANK_SERIES,
    PAPER_TABLE2,
)
from repro.apps.workload import paper_rank_series
from repro.cloud.instances import CC2_8XLARGE
from repro.perfmodel.weak_scaling import platform_rank_limit
from repro.platforms import all_platforms


class TestInternalConsistency:
    def test_table2_node_counts_are_ceil_p_over_16(self):
        for mpi, row in PAPER_TABLE2.items():
            assert row.nodes == -(-mpi // 16), mpi

    def test_table2_cost_consistency(self):
        """The paper's own cost column equals nodes x $2.40 x t / 3600
        (within its rounding)."""
        for row in PAPER_TABLE2.values():
            expected = row.nodes * PAPER_EC2_NODE_HOURLY * row.full_time_s / 3600
            assert row.full_real_cost == pytest.approx(expected, rel=0.02), row.mpi

    def test_table2_mix_estimate_consistency(self):
        """The est. cost column equals nodes x $0.54 x t / 3600."""
        for row in PAPER_TABLE2.values():
            expected = row.nodes * PAPER_EC2_SPOT_HOURLY * row.mix_time_s / 3600
            # abs term covers the table's 4-decimal rounding at tiny costs.
            assert row.mix_est_cost == pytest.approx(expected, rel=0.03, abs=6e-5), row.mpi

    def test_rank_series_cubes(self):
        assert PAPER_RANK_SERIES == tuple(q**3 for q in range(1, 11))
        assert list(PAPER_RANK_SERIES) == paper_rank_series(1000)

    def test_cost_ratio(self):
        ratio = PAPER_EC2_NODE_HOURLY / PAPER_EC2_SPOT_HOURLY
        assert ratio == pytest.approx(4.444, abs=0.01)


class TestModelsMatchPaperData:
    def test_platform_rates(self):
        for platform in all_platforms():
            assert platform.cost_per_core_hour == pytest.approx(
                PAPER_COST_RATES[platform.name], abs=2e-4
            )

    def test_instance_prices(self):
        assert CC2_8XLARGE.on_demand_hourly == PAPER_EC2_NODE_HOURLY
        assert CC2_8XLARGE.typical_spot_hourly == PAPER_EC2_SPOT_HOURLY
        assert CC2_8XLARGE.core_hourly(spot=True) == pytest.approx(
            PAPER_COST_RATES["ec2-spot"]
        )

    def test_rank_limits(self):
        for platform in all_platforms():
            limit, _ = platform_rank_limit(platform)
            feasible = [p for p in PAPER_RANK_SERIES if p <= limit]
            assert max(feasible) == PAPER_MAX_RANKS[platform.name]

    def test_elements_per_rank(self):
        assert PAPER_ELEMENTS_PER_RANK == 8000
