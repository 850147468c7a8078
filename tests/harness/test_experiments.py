"""Tests for the paper artifacts, as :func:`repro.run` produces them.

These assert the *shapes* the reproduction must match: who wins, by
roughly what factor, where curves truncate, and which qualitative
claims of §VII/§VIII come out of the machinery.
"""

import itertools
from pathlib import Path

import pytest

import repro
from repro.apps.workload import RD_WORKLOAD
from repro.harness.config import RunConfig
from repro.harness.results import weak_scaling_rows, weak_scaling_series
from repro.harness.experiments import _mix_topology
from repro.harness.paper_data import PAPER_TABLE2
from repro.perfmodel.calibration import RD_TIME_SCALE
from repro.perfmodel.phases import PhaseModel
from repro.platforms.catalog import ec2_cc28xlarge


def point(table, platform, num_ranks):
    """One cell of a weak-scaling figure."""
    (pt,) = [pt for pt in table.columns[platform] if pt.num_ranks == num_ranks]
    return pt


@pytest.fixture(scope="module")
def artifacts():
    """Every model-only artifact, from one uncached in-process run."""
    return repro.run(
        artifacts=("table1", "porting", "fig4", "fig5", "table2", "fig6", "fig7"),
        use_cache=False,
    )


@pytest.fixture(scope="module")
def fig4(artifacts):
    return artifacts.artifact("fig4")


@pytest.fixture(scope="module")
def fig5(artifacts):
    return artifacts.artifact("fig5")


@pytest.fixture(scope="module")
def table2(artifacts):
    return artifacts.artifact("table2")


class TestTable1:
    def test_matches_catalog(self, artifacts):
        matrix = artifacts.artifact("table1")
        assert matrix.cell("network", "lagrange") == "IB-4X-DDR"
        assert matrix.cell("access", "ec2") == "root"


class TestPortingEffort:
    def test_narrative_numbers(self, artifacts):
        """§VI: zero effort at home; ~8 man-hours on ellipse/lagrange;
        about a day (incl. cloud config) on EC2."""
        report = artifacts.artifact("porting")
        efforts = {
            name: report.effort(name).total_hours
            for name in report.platforms()
        }
        assert efforts["puma"] == 0.0
        assert 6 <= efforts["ellipse"] <= 10
        assert 5 <= efforts["lagrange"] <= 10
        assert 8 <= efforts["ec2"] <= 14
        assert efforts["ec2"] > efforts["ellipse"]

    def test_actions_listed(self, artifacts):
        effort = artifacts.artifact("porting").effort("ec2")
        assert any("ssh-keys" in a for a in effort.actions)


class TestFig4:
    def test_columns_and_truncation(self, fig4):
        assert fig4.platforms() == ["puma", "ellipse", "lagrange", "ec2"]
        assert fig4.feasible_max("puma") == 125
        assert fig4.feasible_max("ellipse") == 512
        assert fig4.feasible_max("lagrange") == 343
        assert fig4.feasible_max("ec2") == 1000

    def test_lagrange_wins_beyond_125(self, fig4):
        for p in (216, 343):
            lag = point(fig4, "lagrange", p).prediction.total
            for other in ("ellipse", "ec2"):
                assert lag < point(fig4, other, p).prediction.total

    def test_ec2_beats_gige_clusters_at_scale(self, fig4):
        assert (
            point(fig4, "ec2", 125).prediction.total
            < point(fig4, "puma", 125).prediction.total
        )
        assert (
            point(fig4, "ec2", 512).prediction.total
            < point(fig4, "ellipse", 512).prediction.total
        )

    def test_rows_and_series_extraction(self, fig4):
        headers, rows = weak_scaling_rows(fig4, "total")
        assert headers == ["ranks", "puma", "ellipse", "lagrange", "ec2"]
        assert len(rows) == 10
        assert rows[-1][1] is None  # puma infeasible at 1000
        series = weak_scaling_series(fig4, "solve")
        assert len(series["ec2"]) == 10
        assert len(series["puma"]) == 5

    def test_phase_ordering_assembly_dominates_rd(self, fig4):
        """RD's Q2 assembly is its dominant compute phase at small p."""
        pt = point(fig4, "ec2", 1).prediction
        assert pt.assembly > pt.solve > pt.preconditioner


class TestFig5:
    def test_ns_worse_scaling_than_rd(self, fig4, fig5):
        for name in fig5.platforms():
            rd_growth = (
                point(fig4, name, 125).prediction.total / point(fig4, name, 1).prediction.total
            )
            ns_growth = (
                point(fig5, name, 125).prediction.total / point(fig5, name, 1).prediction.total
            )
            assert ns_growth > rd_growth, name

    def test_does_not_scale_well_in_any_range(self, fig5):
        """'This test does not scale well in any range' — even 1 -> 8
        already grows on every platform."""
        for name in fig5.platforms():
            assert (
                point(fig5, name, 8).prediction.total
                > 1.2 * point(fig5, name, 1).prediction.total
            ), name

    def test_lagrange_most_efficient(self, fig5):
        for p in (125, 343):
            lag = point(fig5, "lagrange", p).prediction.total
            others = [
                point(fig5, name, p).prediction.total
                for name in ("puma", "ellipse", "ec2")
                if point(fig5, name, p).feasible
            ]
            assert all(lag < t for t in others)

    def test_ec2_improves_on_department_clusters_small_p(self, fig5):
        for p in (1, 8):
            assert point(fig5, "ec2", p).prediction.total < 0.6 * point(fig5, "puma", p).prediction.total


class TestTable2:
    def test_row_structure(self, table2):
        assert [row.mpi for row in table2] == list(PAPER_TABLE2)
        for row in table2:
            assert row.nodes == PAPER_TABLE2[row.mpi].nodes

    def test_full_times_match_paper_within_40_percent(self, table2):
        for row in table2:
            paper_time = PAPER_TABLE2[row.mpi].full_time_s
            assert row.full_time_s == pytest.approx(paper_time, rel=0.40), row.mpi

    def test_no_significant_single_group_benefit(self, table2):
        """Table II's conclusion: 'regular allocation in a single
        placement group does not introduce any performance benefits.'"""
        for row in table2:
            assert row.mix_time_s == pytest.approx(row.full_time_s, rel=0.20)

    def test_cost_ratio_roughly_4x(self, table2):
        """'...despite costing four times as much': full/mix cost ratio
        tracks the on-demand/spot price ratio (2.40 / 0.54 = 4.44)."""
        for row in table2:
            ratio = row.full_real_cost / row.mix_est_cost
            assert ratio == pytest.approx(4.44, rel=0.25), row.mpi

    def test_costs_match_paper_magnitudes(self, table2):
        for row in table2:
            paper_cost = PAPER_TABLE2[row.mpi].full_real_cost
            assert row.full_real_cost == pytest.approx(paper_cost, rel=0.45), row.mpi

    def test_deterministic_for_seed(self):
        a, b = (
            repro.run(
                "table2", config=RunConfig(seed=3), use_cache=False
            ).artifact("table2")
            for _ in range(2)
        )
        assert all(x.mix_time_s == y.mix_time_s for x, y in zip(a, b))

    @pytest.mark.parametrize("p", [125, 512, 1000])
    def test_placement_groups_move_time_by_a_few_percent(self, p):
        """Table II's finding as an ablation: at fixed node count the
        placement-group layout (no measurement jitter here) moves the
        iteration time by well under 15 %."""
        single = PhaseModel(
            RD_WORKLOAD, ec2_cc28xlarge, time_scale=RD_TIME_SCALE
        ).predict(p).total
        spread = PhaseModel(
            RD_WORKLOAD, ec2_cc28xlarge, time_scale=RD_TIME_SCALE,
            topology=_mix_topology(
                ec2_cc28xlarge.nodes_for_ranks(p), seed=11 + p
            ),
        ).predict(p).total
        assert spread == pytest.approx(single, rel=0.15)


class TestCostFigures:
    @pytest.fixture(scope="class")
    def fig6(self, artifacts):
        return artifacts.artifact("fig6")

    @pytest.fixture(scope="class")
    def fig7(self, artifacts):
        return artifacts.artifact("fig7")

    def test_mix_curve_present(self, fig6):
        assert "ec2 mix" in fig6.platforms()

    def test_whole_node_charging_pattern(self, fig6):
        """§VII.D: EC2's per-core price inflates when cores idle — the
        1- and 8-rank points pay a full 16-core node."""
        one = point(fig6, "ec2", 1)
        eight = point(fig6, "ec2", 8)
        # cost/rank-second at 1 rank is ~8x that at 8 ranks (same node).
        rate_1 = one.cost_per_iteration / one.prediction.total
        rate_8 = eight.cost_per_iteration / eight.prediction.total
        assert rate_1 == pytest.approx(rate_8, rel=0.01)  # same node total
        assert one.cost_per_iteration / 1 > eight.cost_per_iteration / 8
        # ... unlike a per-core platform, whose bill follows the ranks.
        assert (
            point(fig6, "puma", 8).cost_per_iteration
            > 4.0 * point(fig6, "puma", 1).cost_per_iteration
        )

    def test_mix_cheapest_curve_at_scale(self, fig6):
        for p in (27, 125, 1000):
            mix = point(fig6, "ec2 mix", p).cost_per_iteration
            full = point(fig6, "ec2", p).cost_per_iteration
            assert mix < full / 4

    def test_ns_ec2_mix_beats_puma_on_cost_and_time(self, fig7):
        """§VII.D: 'EC2 costs less than our on-premise cluster and is
        faster as well' (via the cost-aware mix strategy)."""
        for p in (27, 64):
            mix = point(fig7, "ec2 mix", p)
            puma_pt = point(fig7, "puma", p)
            assert mix.cost_per_iteration < puma_pt.cost_per_iteration
            assert mix.prediction.total < puma_pt.prediction.total
        # At 125 ranks whole-node rounding (8 full instances for 125
        # ranks) erodes the cost edge to parity, but the speed advantage
        # persists — the convergence visible at the right edge of Fig. 7.
        mix = point(fig7, "ec2 mix", 125)
        puma_pt = point(fig7, "puma", 125)
        assert mix.cost_per_iteration < 1.15 * puma_pt.cost_per_iteration
        assert mix.prediction.total < puma_pt.prediction.total

    def test_lagrange_most_expensive_per_iteration_at_small_p(self, fig6):
        """19.19 cents/core-hour makes the grid the costliest fully
        utilized option."""
        costs = {
            name: point(fig6, name, 64).cost_per_iteration
            for name in ("puma", "ellipse", "lagrange")
        }
        assert costs["lagrange"] > costs["ellipse"] > costs["puma"]

    def test_ns_lagrange_costs_most_per_iteration_at_p8(self, fig7):
        """The same per-core premium on the compute-bound NS case: at
        p = 8 lagrange costs more per iteration than puma and ellipse."""
        lag = point(fig7, "lagrange", 8).cost_per_iteration
        for name in ("puma", "ellipse"):
            assert lag > point(fig7, name, 8).cost_per_iteration, name


def _experiments_md_table(heading: str) -> list[list[str]]:
    """Body cells of the first markdown table under ``heading``."""
    path = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
    lines = iter(path.read_text().splitlines())
    next(line for line in lines if line.startswith(heading))
    table = itertools.takewhile(
        lambda line: line.startswith("|"),
        itertools.dropwhile(lambda line: not line.startswith("|"), lines),
    )
    rows = [[cell.strip() for cell in row.strip("|").split("|")] for row in table]
    return rows[2:]  # skip the header and |---| rows


class TestExperimentsMdReadBack:
    """EXPERIMENTS.md's hand-typed "measured" tables are read back
    against the run at the printed precision; this is what keeps them
    true."""

    def test_figure4_measured_table(self, fig4):
        _headers, rows = weak_scaling_rows(fig4, "total")
        derived = [
            [str(row[0])]
            + ["—" if value is None else f"{value:.1f}" for value in row[1:]]
            + [f"{PAPER_TABLE2[row[0]].full_time_s:.2f}"]
            for row in rows
        ]
        assert derived == _experiments_md_table("## Figure 4")

    def test_table2_paper_and_ours_cells(self, table2):
        derived = []
        for row in table2:
            paper = PAPER_TABLE2[row.mpi]
            derived.append([
                str(row.mpi),
                str(row.nodes),
                f"{paper.full_time_s:.2f} / {row.full_time_s:.2f}",
                f"{paper.full_real_cost:.4f} / {row.full_real_cost:.4f}",
                f"{paper.mix_time_s:.2f} / {row.mix_time_s:.2f}",
                f"{paper.mix_est_cost:.4f} / {row.mix_est_cost:.4f}",
            ])
        assert derived == _experiments_md_table("## Table II")
