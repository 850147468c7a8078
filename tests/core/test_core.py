"""Tests for the deployment pipeline, characterization and reporting."""

from dataclasses import replace

import pytest

from repro.errors import ExperimentError, PlatformError, ReproError
from repro.apps.workload import NS_WORKLOAD, RD_WORKLOAD, workload_by_name
from repro.core.reporting import ascii_chart, ascii_table
from repro.core.deployment import deploy_and_run
from repro.core.characterization import platform_gaps, render_table1
from repro.platforms.catalog import (
    all_platforms,
    ec2_cc28xlarge,
    ellipse,
    lagrange,
    puma,
)


class TestDeployment:
    def test_full_pipeline_on_puma(self):
        report = deploy_and_run(puma, RD_WORKLOAD, 64, num_iterations=50)
        assert report.platform == "puma"
        assert report.nodes == 16
        assert report.provisioning.total_hours == 0.0
        assert report.queue_wait_s > 0
        assert report.runtime_s == pytest.approx(report.phases.total * 50)
        assert report.run_cost_dollars > 0
        assert "qsub" in report.launch_command
        assert "puma" in report.summary()

    def test_ec2_thousand_ranks(self):
        report = deploy_and_run(ec2_cc28xlarge, RD_WORKLOAD, 1000, num_iterations=10)
        assert report.nodes == 63
        assert "mpiexec -n 1000" in report.launch_command
        # Whole-node billing: 63 * 16 cores paid.
        assert report.run_cost_dollars == pytest.approx(
            63 * 16 * 0.15 * report.runtime_s / 3600
        )

    def test_ceiling_enforced(self):
        with pytest.raises(PlatformError, match="data-volume cap"):
            deploy_and_run(lagrange, RD_WORKLOAD, 512)
        with pytest.raises(PlatformError, match="mpiexec"):
            deploy_and_run(ellipse, RD_WORKLOAD, 729)
        with pytest.raises(PlatformError):
            deploy_and_run(puma, RD_WORKLOAD, 216)

    def test_validation(self):
        with pytest.raises(PlatformError):
            deploy_and_run(puma, RD_WORKLOAD, 0)
        with pytest.raises(PlatformError):
            deploy_and_run(puma, RD_WORKLOAD, 8, num_iterations=0)

    def test_time_to_solution_includes_wait(self):
        report = deploy_and_run(lagrange, NS_WORKLOAD, 125, num_iterations=20)
        assert report.queue_wait_s > 0

    def test_memory_limit_pushes_big_problems_to_the_cloud(self):
        """Navier-Stokes on Q2 elements (the paper's velocity order) at
        20^3 elements/rank needs 1.7 GB a rank: too big for 1 GB/core
        puma, fine on EC2's 3.8 GB/core (§VIII's memory argument for the
        cloud)."""
        ns_q2 = replace(NS_WORKLOAD, order=2)
        with pytest.raises(PlatformError, match="RAM/core"):
            deploy_and_run(puma, ns_q2, 8)
        report = deploy_and_run(ec2_cc28xlarge, ns_q2, 8)
        assert report.platform == "ec2"


class TestAPI:
    def test_workload_lookup(self):
        assert workload_by_name("RD") is RD_WORKLOAD
        assert workload_by_name("ns") is NS_WORKLOAD
        with pytest.raises(ReproError):
            workload_by_name("lbm")


class TestCharacterization:
    def test_render_table1_contains_platforms_and_attrs(self):
        text = render_table1()
        for token in ("puma", "ellipse", "lagrange", "ec2", "network", "compiler"):
            assert token in text

    def test_platform_gaps(self):
        gaps = platform_gaps()
        assert gaps["puma"]["missing"] == []
        assert gaps["puma"]["effort_hours"] == 0.0
        assert "trilinos" in gaps["ec2"]["missing"]
        assert gaps["ec2"]["effort_hours"] > gaps["lagrange"]["effort_hours"]


class TestReporting:
    def test_ascii_table(self):
        text = ascii_table(["ranks", "time"], [[1, 4.83], [8, 5.83], [1000, None]])
        assert "ranks" in text
        assert "4.83" in text
        assert "-" in text  # the None cell

    def test_ascii_table_needs_headers(self):
        with pytest.raises(ExperimentError):
            ascii_table([], [])

    def test_ascii_chart(self):
        chart = ascii_chart(
            {"ec2": [(1, 4.8), (1000, 162.0)], "lagrange": [(1, 5.3), (343, 7.4)]},
            title="fig4",
        )
        assert "fig4" in chart
        assert "legend" in chart
        assert "o=ec2" in chart

    def test_ascii_chart_validation(self):
        with pytest.raises(ExperimentError):
            ascii_chart({"a": []})
        with pytest.raises(ExperimentError):
            ascii_chart({"a": [(1.0, -2.0)]})
