"""The assembly broker against the paper's placement stories."""

import pytest

from repro.apps.workload import NS_WORKLOAD
from repro.broker.assembly import (
    SPOT_MIX,
    BrokerRequest,
    broker_assemblies,
    render_broker_report,
    section_7d_request,
)
from repro.core.deployment import deploy_and_run
from repro.costs.model import DEVELOPER_HOURLY_RATE
from repro.errors import BrokerError
from repro.harness.paper_data import PAPER_TABLE2
from repro.platforms.catalog import all_platforms


class TestSection7D:
    """§VII.D: at 1000 ranks only EC2 can host the run, and the
    spot/on-demand mix beats the all-on-demand assembly on cost while
    still meeting the deadline (Table II's economics)."""

    @pytest.fixture(scope="class")
    def report(self):
        return broker_assemblies(section_7d_request())

    def test_on_prem_and_grid_are_infeasible(self, report):
        for name in ("puma", "ellipse", "lagrange"):
            plan = report.plan(name)
            assert not plan.feasible
            assert "exceed" in plan.reason

    def test_mix_wins_on_cost(self, report):
        assert report.best.name == SPOT_MIX
        mix, full = report.plan(SPOT_MIX), report.plan("ec2")
        assert mix.cost_dollars < full.cost_dollars
        # The discount survives checkpoint/rework overhead: still >30%.
        assert mix.cost_dollars < 0.7 * full.cost_dollars

    def test_both_ec2_plans_meet_the_deadline(self, report):
        assert report.plan(SPOT_MIX).meets_deadline
        assert report.plan("ec2").meets_deadline

    def test_mix_carries_the_risk(self, report):
        mix, full = report.plan(SPOT_MIX), report.plan("ec2")
        assert full.interruption_probability == 0.0
        assert mix.interruption_probability > 0.5
        assert mix.expected_reclaims > 1.0
        assert mix.checkpoint_interval_s is not None

    def test_matches_table2_economics(self, report):
        paper = PAPER_TABLE2[1000]
        mix, full = report.plan(SPOT_MIX), report.plan("ec2")
        # The all-spot estimated cost per iteration is Table II's
        # 'est. cost' column; the on-demand plan is the 'real cost' one.
        est_per_iter = mix.est_cost_all_spot / mix.num_iterations
        assert est_per_iter == pytest.approx(paper.mix_est_cost, rel=0.25)
        assert full.cost_per_iteration == pytest.approx(
            paper.full_real_cost, rel=0.45
        )

    def test_phase_breakdown_is_complete(self, report):
        mix = report.plan(SPOT_MIX)
        assert [p.name for p in mix.phases] == [
            "provision", "queue", "compute", "checkpoint+rework",
        ]
        assert mix.phase("compute").cost_dollars > 0
        assert mix.phase("provision").cost_dollars > 0  # §VI man-hours
        assert mix.launch_command  # the scheduler's command line


class TestConstraints:
    def test_tight_deadline_flags_slow_plans(self):
        report = broker_assemblies(BrokerRequest(
            app="rd", num_ranks=64, num_iterations=100,
            deadline_s=600.0,
        ))
        flagged = [p for p in report.plans if p.feasible and not p.meets_deadline]
        assert flagged  # queue waits alone blow a 10-minute deadline

    def test_budget_constraint(self):
        report = broker_assemblies(BrokerRequest(
            app="rd", num_ranks=1000, budget_dollars=1.0,
        ))
        with pytest.raises(BrokerError, match="no assembly satisfies"):
            report.best

    def test_risk_cap_excludes_the_mix(self):
        report = broker_assemblies(BrokerRequest(
            app="rd", num_ranks=1000,
            max_interruption_probability=0.01,
        ))
        assert not report.plan(SPOT_MIX).within_risk
        assert report.best.name == "ec2"

    def test_small_job_every_platform_feasible(self):
        # At 64 ranks the whole portfolio qualifies; the spot mix fits
        # entirely inside the spare pool, so it wins on sheer price.
        report = broker_assemblies(BrokerRequest(app="rd", num_ranks=64))
        assert sum(p.feasible for p in report.plans) == 5
        assert report.best.name == SPOT_MIX
        assert report.best.spot_nodes == report.best.nodes

    def test_acceptable_plans_rank_ahead(self):
        report = broker_assemblies(section_7d_request())
        flags = [p.acceptable for p in report.plans]
        assert flags == sorted(flags, reverse=True)

    def test_invalid_request_rejected(self):
        with pytest.raises(BrokerError):
            BrokerRequest(num_ranks=0)
        with pytest.raises(BrokerError):
            BrokerRequest(cost_weight=-1.0)
        with pytest.raises(BrokerError):
            BrokerRequest(spot_spike_probability=1.5)
        with pytest.raises(BrokerError):
            BrokerRequest(checkpoint_seconds=-1.0)


def _no_spot(**kwargs) -> BrokerRequest:
    """A request whose risk cap of 0 sets the spot mix aside."""
    return BrokerRequest(app="rd", max_interruption_probability=0.0, **kwargs)


class TestAdvice:
    """The ranked portfolio is the only platform scorer: the questions
    the paper's 'selecting a utility provider' asks, answered by it."""

    def test_cost_only_priority_prefers_puma(self):
        # 2.3 cents per amortized core-hour wins on dollars alone.
        report = broker_assemblies(_no_spot(
            num_ranks=64, cost_weight=1.0, time_weight=0.0, risk_weight=0.0,
        ))
        assert report.best.name == "puma"
        assert not report.plan(SPOT_MIX).within_risk

    def test_time_only_priority_prefers_fast_access(self):
        # EC2's minutes-not-hours wait beats every batch queue.
        report = broker_assemblies(_no_spot(
            num_ranks=64, cost_weight=0.0, time_weight=1.0, risk_weight=0.0,
        ))
        assert report.best.name == "ec2"
        assert report.best.time_to_solution_s == min(
            p.time_to_solution_s for p in report.plans if p.acceptable
        )

    def test_cost_only_winner_is_the_cheapest_plan(self):
        report = broker_assemblies(_no_spot(
            num_ranks=64, cost_weight=1.0, time_weight=0.0, risk_weight=0.0,
        ))
        cheapest = min(
            (p for p in report.plans if p.acceptable),
            key=lambda p: p.cost_dollars,
        )
        assert report.best.name == cheapest.name == "puma"

    def test_every_platform_deploys_64_ranks(self):
        report = broker_assemblies(BrokerRequest(
            app="rd", num_ranks=64, num_iterations=10,
        ))
        for platform in all_platforms():
            plan = report.plan(platform.name)
            assert plan.feasible and plan.reason == ""
            assert plan.launch_command
            assert plan.phase("compute").time_s > 0

    def test_only_the_cloud_hosts_1000_ranks(self):
        """§VIII: only the cloud sustains the 1000-core task."""
        report = broker_assemblies(_no_spot(num_ranks=1000))
        assert [p.name for p in report.plans if p.feasible] == ["ec2", SPOT_MIX]
        assert {p.name for p in report.plans if not p.feasible} == {
            "puma", "ellipse", "lagrange",
        }

    def test_best_at_1000_ranks_is_ec2(self):
        for weights in ((1.0, 0.25, 0.25), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)):
            cost, time, risk = weights
            report = broker_assemblies(_no_spot(
                num_ranks=1000, cost_weight=cost, time_weight=time,
                risk_weight=risk,
            ))
            assert report.best.name == "ec2", weights

    def test_every_on_premises_ceiling_binds_at_1000(self):
        """§VIII: 'only Cloud providers could provide a large enough
        offering to sustain the biggest, 1000-core task.'"""
        report = broker_assemblies(BrokerRequest(app="rd", num_ranks=1000))
        for name in ("puma", "ellipse", "lagrange"):
            assert report.plan(name).reason.startswith("1000 ranks exceed")
        assert report.plan("ec2").feasible

    def test_infeasible_plans_rank_last(self):
        report = broker_assemblies(BrokerRequest(app="rd", num_ranks=512))
        assert report.plans[-1].name in ("puma", "lagrange")
        assert not report.plans[-1].feasible
        flags = [p.feasible for p in report.plans]
        assert flags == sorted(flags, reverse=True)

    def test_negative_weights_rejected(self):
        for field in ("cost_weight", "time_weight", "risk_weight"):
            with pytest.raises(BrokerError, match="non-negative"):
                BrokerRequest(**{field: -1.0})

    def test_ceiling_reasons(self):
        report = broker_assemblies(BrokerRequest(app="rd", num_ranks=512))
        assert report.plan("lagrange").reason == (
            "512 ranks exceed the IB adapters' data-volume cap of 343 "
            "processes (paper §VII.A)"
        )
        assert report.plan("puma").reason == (
            "512 ranks exceed the machine's 128 cores"
        )

    def test_no_platform_fits_a_million_ranks(self):
        report = broker_assemblies(BrokerRequest(app="rd", num_ranks=10**6))
        assert not any(p.feasible for p in report.plans)
        with pytest.raises(BrokerError, match="no assembly satisfies"):
            report.best

    def test_candidates_are_deployments(self):
        """Each single-platform plan is :func:`deploy_and_run`'s answer,
        porting effort shown as the (deadline-exempt) provision phase."""
        request = BrokerRequest(app="ns", num_ranks=125, num_iterations=40)
        report = broker_assemblies(request)
        for platform in all_platforms():
            deployed = deploy_and_run(
                platform, NS_WORKLOAD, 125, num_iterations=40
            )
            plan = report.plan(platform.name)
            assert plan.nodes == deployed.nodes
            assert plan.launch_command == deployed.launch_command
            assert plan.phase("queue").time_s == deployed.queue_wait_s
            assert plan.phase("compute").time_s == deployed.runtime_s
            assert plan.phase("compute").cost_dollars == (
                deployed.run_cost_dollars
            )
            assert plan.phase("provision").cost_dollars == (
                deployed.provisioning.total_hours * DEVELOPER_HOURLY_RATE
            )
        assert report.plan("puma").phase("provision").cost_dollars == 0.0
        assert report.plan("ec2").phase("provision").cost_dollars > 0.0


class TestRendering:
    def test_report_renders_rank_order_and_breakdown(self):
        text = render_broker_report(broker_assemblies(section_7d_request()))
        assert "1. ec2-mix" in text
        assert "infeasible" in text
        assert "checkpoint+rework" in text
        assert "Young tau*" in text

    def test_deterministic(self):
        a = render_broker_report(broker_assemblies(section_7d_request()))
        b = render_broker_report(broker_assemblies(section_7d_request()))
        assert a == b
