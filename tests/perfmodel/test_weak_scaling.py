"""Tests for the weak-scaling sweep generator."""

import pytest

from repro.apps.workload import NS_WORKLOAD, RD_WORKLOAD
from repro.perfmodel.weak_scaling import weak_scaling_sweep
from repro.platforms.catalog import (
    all_platforms,
    ec2_cc28xlarge,
    ellipse,
    lagrange,
    puma,
)
from repro.platforms.limits import effective_max_ranks, rank_ceiling_reason


class TestRankLimits:
    def test_paper_limits_and_reasons(self):
        for platform, limit, mechanism in (
            (puma, 128, "cores"),
            (ellipse, 512, "mpiexec"),
            (lagrange, 343, "data-volume"),
        ):
            assert effective_max_ranks(platform) == limit
            assert mechanism in rank_ceiling_reason(platform, limit + 1)
        assert effective_max_ranks(ec2_cc28xlarge) >= 1000


class TestSweep:
    def test_full_series_always_returned(self):
        points = weak_scaling_sweep(RD_WORKLOAD, puma)
        assert [pt.num_ranks for pt in points] == [1, 8, 27, 64, 125, 216, 343, 512, 729, 1000]

    def test_feasibility_cutoffs_match_paper(self):
        """puma stops after 125, ellipse after 512, lagrange after 343,
        ec2 covers the full series (§VII.A)."""
        expected_max = {"puma": 125, "ellipse": 512, "lagrange": 343, "ec2": 1000}
        for platform in all_platforms():
            points = weak_scaling_sweep(RD_WORKLOAD, platform)
            feasible = [pt.num_ranks for pt in points if pt.feasible]
            assert max(feasible) == expected_max[platform.name]

    def test_infeasible_points_carry_reason(self):
        points = weak_scaling_sweep(RD_WORKLOAD, lagrange)
        beyond = [pt for pt in points if not pt.feasible]
        assert beyond
        assert all("data-volume" in pt.limit_reason for pt in beyond)
        assert all(pt.prediction is None for pt in beyond)

    def test_nodes_computed(self):
        points = weak_scaling_sweep(RD_WORKLOAD, ec2_cc28xlarge)
        by_ranks = {pt.num_ranks: pt for pt in points}
        assert by_ranks[1000].nodes == 63
        assert by_ranks[8].nodes == 1

    def test_costs_attached(self):
        points = weak_scaling_sweep(RD_WORKLOAD, ec2_cc28xlarge)
        feasible = [pt for pt in points if pt.feasible]
        assert all(pt.cost_per_iteration > 0 for pt in feasible)

    def test_spot_rate_override_scales_cost(self):
        full = weak_scaling_sweep(RD_WORKLOAD, ec2_cc28xlarge)
        spot = weak_scaling_sweep(
            RD_WORKLOAD, ec2_cc28xlarge, core_hour_rate=0.03375
        )
        for f, s in zip(full, spot):
            if f.feasible:
                assert s.cost_per_iteration == pytest.approx(
                    f.cost_per_iteration * 0.03375 / 0.15
                )

    def test_ns_slower_than_rd_pointwise(self):
        rd = weak_scaling_sweep(RD_WORKLOAD, ec2_cc28xlarge)
        ns = weak_scaling_sweep(NS_WORKLOAD, ec2_cc28xlarge)
        for r, n in zip(rd, ns):
            if r.feasible and n.feasible:
                assert n.prediction.total > r.prediction.total
