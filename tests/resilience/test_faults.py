"""Fault plans, the injector, and the transport-level fault matrix."""

import numpy as np
import pytest

from repro.apps.navier_stokes import NSProblem
from repro.apps.reaction_diffusion import RDProblem
from repro.apps.stepping import DistributedStep
from repro.cloud.instances import CC2_8XLARGE
from repro.cloud.spot import SpotMarket
from repro.errors import DeadlockError, RankFailedError, ResilienceError
from repro.resilience.faults import FaultEvent, FaultInjector, FaultPlan
from repro.resilience.runner import ResilientRunner, RestartStats
from repro.simmpi.launcher import run_spmd

pytestmark = pytest.mark.resilience

PROBLEM = RDProblem(mesh_shape=(4, 4, 4), num_steps=3)


def _attempt(runner: ResilientRunner, real_timeout: float = 60.0):
    """Run one raw SPMD attempt of the runner's body (no restart loop)."""
    shared = {"records": {}, "final": None}
    return run_spmd(
        target=runner._attempt_body,
        num_ranks=runner.num_ranks,
        args=(shared, RestartStats()),
        fault_injector=runner.injector,
        real_timeout=real_timeout,
    )


class TestFaultEventValidation:
    def test_unknown_kind(self):
        with pytest.raises(ResilienceError, match="unknown fault kind"):
            FaultEvent(kind="power_surge", rank=0, at_step=0)

    def test_kill_needs_exactly_one_trigger(self):
        with pytest.raises(ResilienceError, match="exactly one"):
            FaultEvent(kind="rank_kill", rank=0)
        with pytest.raises(ResilienceError, match="exactly one"):
            FaultEvent(kind="rank_kill", rank=0, at_step=1, after_ops=5)
        with pytest.raises(ResilienceError, match="exactly one"):
            FaultEvent(kind="spot_reclaim", at_step=1)  # no rank

    def test_delay_needs_positive_seconds(self):
        with pytest.raises(ResilienceError, match="delay_seconds"):
            FaultEvent(kind="message_delay")

    def test_counts_validated(self):
        with pytest.raises(ResilienceError, match="count"):
            FaultEvent(kind="message_drop", count=0)
        with pytest.raises(ResilienceError, match="occurrence"):
            FaultEvent(kind="rank_kill", rank=0, at_phase="solve", occurrence=0)

    def test_plan_rejects_non_events(self):
        with pytest.raises(ResilienceError, match="not a FaultEvent"):
            FaultPlan(["kill rank 3"])


def _plain(comm, problem):
    """The plain SPMD time loop of ``problem``'s application."""
    step = DistributedStep.for_problem(problem)(comm, problem)
    step.run(problem.num_steps)
    return step.solver.solution[step.ownership[comm.rank]]


class TestFaultMatrix:
    """Rank death in each phase surfaces RankFailedError — never a hang."""

    PROBLEM = RDProblem(mesh_shape=(4, 4, 4), num_steps=3)

    @pytest.mark.parametrize("phase", ["assembly", "preconditioner", "solve"])
    def test_kill_at_phase_entry(self, tmp_path, phase):
        plan = FaultPlan([
            FaultEvent(kind="rank_kill", rank=1, at_phase=phase, occurrence=2)
        ])
        runner = ResilientRunner(
            self.PROBLEM, num_ranks=2, plan=plan, checkpoint_dir=tmp_path
        )
        with pytest.raises(RankFailedError) as info:
            _attempt(runner)
        assert info.value.rank == 1
        assert info.value.phase == phase

    @pytest.mark.parametrize("after_ops", [1, 20, 45])
    def test_kill_mid_communication(self, tmp_path, after_ops):
        """``after_ops`` kills land between sends/receives — mid-CG for
        larger counts — and must still abort the whole run cleanly."""
        plan = FaultPlan([
            FaultEvent(kind="rank_kill", rank=0, after_ops=after_ops)
        ])
        runner = ResilientRunner(
            self.PROBLEM, num_ranks=2, plan=plan, checkpoint_dir=tmp_path
        )
        with pytest.raises(RankFailedError) as info:
            _attempt(runner)
        assert info.value.rank == 0

    def test_kill_at_step_boundary_is_deterministic(self, tmp_path):
        plan = FaultPlan([FaultEvent(kind="spot_reclaim", rank=1, at_step=2)])
        runner = ResilientRunner(
            self.PROBLEM, num_ranks=2, plan=plan, checkpoint_dir=tmp_path
        )
        with pytest.raises(RankFailedError) as info:
            _attempt(runner)
        assert info.value.rank == 1
        assert info.value.step == 2

    def test_dropped_message_becomes_deadlock_not_hang(self):
        plan = FaultPlan([FaultEvent(kind="message_drop")])
        injector = FaultInjector(plan)
        with pytest.raises(DeadlockError):
            run_spmd(_plain, num_ranks=2, args=(self.PROBLEM,),
                     fault_injector=injector, real_timeout=30.0)
        assert injector.messages_dropped == 1

    def test_delayed_messages_same_answer_later_clock(self):
        clean = run_spmd(_plain, num_ranks=2, args=(self.PROBLEM,))
        injector = FaultInjector(FaultPlan([
            FaultEvent(kind="message_delay", delay_seconds=5.0, count=3)
        ]))
        delayed = run_spmd(_plain, num_ranks=2, args=(self.PROBLEM,),
                           fault_injector=injector)
        assert injector.messages_delayed == 3
        for clean_ret, delayed_ret in zip(clean.returns, delayed.returns):
            assert np.array_equal(clean_ret, delayed_ret)
        assert delayed.max_time >= clean.max_time


class TestFaultMatrixNS(TestFaultMatrix):
    """The same matrix on the distributed NS loop."""

    PROBLEM = NSProblem(mesh_shape=(4, 4, 4), num_steps=3)


class TestInjectorLifecycle:
    def test_events_fire_once_across_restarts(self, tmp_path):
        plan = FaultPlan([FaultEvent(kind="rank_kill", rank=0, at_step=1)])
        runner = ResilientRunner(
            PROBLEM, num_ranks=2, plan=plan, checkpoint_dir=tmp_path
        )
        with pytest.raises(RankFailedError):
            _attempt(runner)
        assert runner.injector.kills == 1
        runner.injector.reset_liveness()
        # Second attempt: the consumed event must not fire again.
        result = _attempt(runner)
        assert result.num_ranks == 2
        assert runner.injector.kills == 1


class TestSpotMarketSeam:
    """One seeded market trajectory == billing outcome == injected kills."""

    def test_plan_matches_sampler(self):
        market = SpotMarket(CC2_8XLARGE, spike_probability=0.4, seed=11)
        spot_ranks = [0, 2, 3]
        plan = FaultPlan.from_spot_market(
            market, num_steps=10, step_hours=1.0, spot_ranks=spot_ranks, seed=11
        )
        sampler = market.reclaim_sampler(len(spot_ranks), 1.0, seed=11)
        expected = []
        for step in range(10):
            for slot in sampler.next_round():
                expected.append((spot_ranks[slot], step))
        assert [(e.rank, e.at_step) for e in plan.events] == expected
        assert all(e.kind == "spot_reclaim" for e in plan.events)

    def test_sampler_is_deterministic_and_slots_die_once(self):
        market = SpotMarket(CC2_8XLARGE, spike_probability=0.5, seed=3)
        a = market.reclaim_sampler(4, 1.0, seed=3)
        b = market.reclaim_sampler(4, 1.0, seed=3)
        rounds_a = [a.next_round() for _ in range(20)]
        rounds_b = [b.next_round() for _ in range(20)]
        assert rounds_a == rounds_b
        reclaimed = [s for r in rounds_a for s in r]
        assert len(reclaimed) == len(set(reclaimed))  # no slot dies twice
        assert len(reclaimed) + len(a.alive_slots) == 4

    def test_billing_and_plan_pin_to_same_rounds(self):
        market = SpotMarket(CC2_8XLARGE, spike_probability=0.5, seed=5)
        from repro.cloud.ec2 import EC2Service

        service = EC2Service(spot_market=market, seed=5)
        cluster = service.assemble_mix(2, seed=5)
        spot_ranks = [
            i for i, inst in enumerate(cluster.instances) if inst.pricing == "spot"
        ]
        assert spot_ranks, "seed must yield at least one spot instance"

        num_steps = 8
        outcome = cluster.run_with_interruptions(
            num_steps * 3600.0, market, seed=5, checkpoint_interval_s=3600.0
        )
        rounds_total = num_steps + len(outcome.reclaim_rounds)
        plan = FaultPlan.from_spot_market(
            market, rounds_total, 1.0, spot_ranks, seed=5
        )
        assert tuple(sorted({e.at_step for e in plan.events})) == \
            outcome.reclaim_rounds
        assert len(plan.events) == outcome.interruptions
        assert all(e.kind == "spot_reclaim" for e in plan.events)
        assert outcome.interruptions > 0
        assert outcome.wall_seconds > outcome.useful_seconds

    def test_zero_spike_market_never_reclaims(self):
        market = SpotMarket(CC2_8XLARGE, spike_probability=0.0, seed=1)
        plan = FaultPlan.from_spot_market(
            market, num_steps=50, step_hours=2.0, spot_ranks=[0, 1], seed=1
        )
        assert len(plan) == 0
