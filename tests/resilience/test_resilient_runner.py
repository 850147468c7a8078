"""The checkpoint/restart protocol: recovery, budgets, accounting."""

from pathlib import Path

import numpy as np
import pytest

import repro
from repro.apps.navier_stokes import DistributedNSStep, NSProblem
from repro.apps.reaction_diffusion import RDProblem, run_rd_distributed
from repro.errors import ReproError, RetriesExhaustedError
from repro.resilience.faults import FaultEvent, FaultPlan
from repro.resilience.runner import ResilientRunner
from repro.simmpi.launcher import run_spmd

pytestmark = pytest.mark.resilience

PROBLEM = RDProblem(mesh_shape=(4, 4, 4), num_steps=5)


@pytest.fixture(scope="module")
def resilience_run():
    """The resilience artifact at its default seed, computed once."""
    return repro.run("resilience", use_cache=False)


class TestRecovery:
    @pytest.mark.parametrize("preconditioner", ["block-jacobi", "jacobi", "none"])
    def test_fault_free_run_matches_plain_distributed(self, tmp_path, preconditioner):
        runner = ResilientRunner(
            PROBLEM, num_ranks=2, checkpoint_dir=tmp_path,
            preconditioner=preconditioner,
        )
        out = runner.run()
        assert out.stats.attempts == 1
        assert out.stats.restarts == 0
        assert out.stats.lost_steps == 0
        assert out.stats.overhead_fraction == 0.0

        def body(comm):
            return run_rd_distributed(
                comm, PROBLEM, preconditioner=preconditioner, discard=1
            )

        plain = run_spmd(body, num_ranks=2)
        plain_full = np.concatenate([r[0] for r in plain.returns])
        assert np.array_equal(out.solution, plain_full)
        assert out.nodal_error < 1e-9

    def test_fault_free_ns_run_matches_plain_distributed(self, tmp_path):
        """The runner picks NS's step from the problem type and runs the
        plain drivers' loop: the same velocity and pressure."""
        problem = NSProblem(mesh_shape=(4, 4, 4), num_steps=3)
        out = ResilientRunner(problem, num_ranks=2, checkpoint_dir=tmp_path).run()
        assert out.stats.attempts == 1
        assert len(out.records) == problem.num_steps

        def body(comm):
            step = DistributedNSStep(comm, problem)
            step.run(problem.num_steps)
            return step.solver.solution[step.ownership[comm.rank]]

        plain = np.concatenate(run_spmd(body, num_ranks=2).returns)
        assert out.solution.shape[1] == 4  # velocity columns, then pressure
        assert np.array_equal(out.solution, plain)
        assert out.nodal_error < 0.5

    def test_resilience_owns_no_numerics(self):
        """Source census: each app's step has one owner, outside this package.

        The runner and the malleable segments take the step from the
        problem's type and checkpoint through ``save_state``/``load_state``;
        a copy of a step, a reach into the BDF history or a name tying the
        package to one application would show up here.
        """
        import repro.resilience

        forbidden = (
            "repro.la", "repro.fem.assembly", "repro.fem.boundary",
            "repro.fem.bdf", "DirichletPlan(", "CompositeOperator(",
            "dist_cg_fused(", "DistMatrix.from_global(", "from_rows(", "._history",
            "RDSolver", "RDProblem", "DistributedRDStep", "save_rd_state",
            "load_rd_state", "rd_discretization",
        )
        sources = sorted(Path(repro.resilience.__file__).parent.glob("*.py"))
        assert len(sources) >= 4
        for source in sources:
            text = source.read_text()
            for needle in forbidden:
                assert needle not in text, f"{source.name} contains {needle!r}"

    def test_recovers_from_single_kill(self, tmp_path):
        plan = FaultPlan([FaultEvent(kind="spot_reclaim", rank=1, at_step=3)])
        runner = ResilientRunner(
            PROBLEM, num_ranks=2, plan=plan, checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        out = runner.run()
        assert out.stats.attempts == 2
        assert out.stats.restarts == 1
        assert out.stats.failed_ranks == [1]
        # Kill at step 3, checkpoint at step 2: step 2 was completed in
        # attempt 1 and redone in attempt 2 — exactly one lost execution.
        assert out.stats.lost_steps == 1
        assert out.stats.executed_steps == PROBLEM.num_steps + 1
        assert out.stats.completed_steps == PROBLEM.num_steps
        assert out.nodal_error < 1e-9

    def test_recovers_from_multiple_kills(self, tmp_path):
        plan = FaultPlan([
            FaultEvent(kind="spot_reclaim", rank=0, at_step=1),
            FaultEvent(kind="rank_kill", rank=1, at_step=2),
            FaultEvent(kind="rank_kill", rank=0, at_step=4),
        ])
        runner = ResilientRunner(
            PROBLEM, num_ranks=2, plan=plan, checkpoint_dir=tmp_path,
            checkpoint_every=1, max_retries=5,
        )
        out = runner.run()
        assert out.stats.restarts == 3
        assert out.stats.attempts == 4
        assert out.stats.failed_ranks == [0, 1, 0]
        # checkpoint_every=1: every restart resumes at the failing step,
        # so no completed execution is ever thrown away.
        assert out.stats.lost_steps == 0
        assert len(out.records) == PROBLEM.num_steps
        assert out.nodal_error < 1e-9

    def test_backoff_grows_and_caps(self, tmp_path):
        plan = FaultPlan([
            FaultEvent(kind="rank_kill", rank=0, at_step=s) for s in range(4)
        ])
        runner = ResilientRunner(
            PROBLEM, num_ranks=2, plan=plan, checkpoint_dir=tmp_path,
            max_retries=6, backoff_base_s=1.0, backoff_cap_s=4.0,
        )
        out = runner.run()
        assert out.stats.backoff_seconds == [1.0, 2.0, 4.0, 4.0]

    def test_spot_reclaims_skip_backoff(self, tmp_path):
        """Reclaims restart immediately; only genuine faults back off.

        A reclaim is the *market* taking a healthy instance away — a
        re-plan trigger, not a crash loop — so it must not inflate the
        exponential backoff schedule that guards against genuinely
        faulty software or hosts.
        """
        plan = FaultPlan([
            FaultEvent(kind="spot_reclaim", rank=0, at_step=1),
            FaultEvent(kind="rank_kill", rank=1, at_step=2),
            FaultEvent(kind="spot_reclaim", rank=0, at_step=3),
            FaultEvent(kind="rank_kill", rank=1, at_step=4),
        ])
        runner = ResilientRunner(
            PROBLEM, num_ranks=2, plan=plan, checkpoint_dir=tmp_path,
            max_retries=6, backoff_base_s=1.0, backoff_cap_s=4.0,
        )
        out = runner.run()
        assert out.stats.restarts == 4
        assert out.stats.reclaim_restarts == 2
        # Zero backoff for the two reclaims; the exponential schedule
        # advances over the two genuine faults alone (1.0 then 2.0).
        assert out.stats.backoff_seconds == [0.0, 1.0, 0.0, 2.0]
        assert out.nodal_error < 1e-9

    def test_simultaneous_kills_cost_one_restart(self, tmp_path):
        plan = FaultPlan([
            FaultEvent(kind="spot_reclaim", rank=0, at_step=2),
            FaultEvent(kind="spot_reclaim", rank=1, at_step=2),
        ])
        runner = ResilientRunner(
            PROBLEM, num_ranks=2, plan=plan, checkpoint_dir=tmp_path
        )
        out = runner.run()
        assert out.stats.restarts == 1
        assert runner.injector.kills == 2


class TestRetryBudget:
    def test_exhausted_budget_raises_typed_error(self, tmp_path):
        plan = FaultPlan([
            FaultEvent(kind="rank_kill", rank=0, at_step=1),
            FaultEvent(kind="rank_kill", rank=1, at_step=2),
        ])
        runner = ResilientRunner(
            PROBLEM, num_ranks=2, plan=plan, checkpoint_dir=tmp_path,
            max_retries=1,
        )
        with pytest.raises(RetriesExhaustedError) as info:
            runner.run()
        assert info.value.attempts == 2
        assert info.value.failed_ranks == [0, 1]

    def test_zero_budget_fails_on_first_kill(self, tmp_path):
        plan = FaultPlan([FaultEvent(kind="rank_kill", rank=0, at_step=0)])
        runner = ResilientRunner(
            PROBLEM, num_ranks=2, plan=plan, checkpoint_dir=tmp_path,
            max_retries=0,
        )
        with pytest.raises(RetriesExhaustedError) as info:
            runner.run()
        assert info.value.attempts == 1

    def test_checkpoint_truncated_between_attempts_is_a_typed_error(self, tmp_path):
        """No hang, no trajectory resumed from half a checkpoint."""
        import time

        from repro.io.checkpoint import CheckpointError

        plan = FaultPlan([FaultEvent(kind="rank_kill", rank=1, at_step=3)])
        runner = ResilientRunner(
            PROBLEM, num_ranks=2, plan=plan, checkpoint_dir=tmp_path,
            checkpoint_every=2, real_timeout=60.0,
        )
        replace_host = runner.injector.reset_liveness

        def truncate_then_replace_host():  # runs between the two attempts
            blob = runner.checkpoint_path.read_bytes()
            runner.checkpoint_path.write_bytes(blob[: len(blob) // 2])
            replace_host()

        runner.injector.reset_liveness = truncate_then_replace_host
        t0 = time.monotonic()
        with pytest.raises(CheckpointError, match="truncated"):
            runner.run()
        assert time.monotonic() - t0 < 30.0

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ReproError, match="checkpoint_every"):
            ResilientRunner(PROBLEM, 2, checkpoint_dir=tmp_path, checkpoint_every=0)
        with pytest.raises(ReproError, match="max_retries"):
            ResilientRunner(PROBLEM, 2, checkpoint_dir=tmp_path, max_retries=-1)
        with pytest.raises(ReproError, match="checkpoint_dir"):
            ResilientRunner(PROBLEM, 2)
        with pytest.raises(ReproError, match="unknown distributed preconditioner"):
            ResilientRunner(PROBLEM, 2, checkpoint_dir=tmp_path, preconditioner="ilu0")
        with pytest.raises(ReproError, match="no distributed step for dict"):
            ResilientRunner({}, 2, checkpoint_dir=tmp_path)


class TestAccountingAndReporting:
    def test_step_records_json_roundtrip(self, tmp_path):
        import json

        from repro.harness.config import from_json, to_json
        from repro.resilience.runner import StepRecord

        runner = ResilientRunner(PROBLEM, num_ranks=2, checkpoint_dir=tmp_path)
        out = runner.run()
        for record in out.records:
            doc = json.loads(json.dumps(to_json(record)))
            assert from_json(StepRecord, doc, "step record") == record

    def test_observed_ns_run_counts_restarts_and_checkpoints(self, tmp_path):
        from repro.obs.core import Observability

        hub = Observability()
        plan = FaultPlan([FaultEvent(kind="spot_reclaim", rank=1, at_step=3)])
        out = ResilientRunner(
            NSProblem(mesh_shape=(4, 4, 4), num_steps=4), num_ranks=2, plan=plan,
            checkpoint_dir=tmp_path, obs=hub,
        ).run()
        metrics = hub.metrics
        assert metrics.counter("resilience_restarts_total").total() == 1
        assert metrics.counter("resilience_attempts_total").total() == 2
        assert (metrics.counter("checkpoints_written_total").total()
                == out.stats.checkpoints_written == 3)
        assert metrics.gauge("resilience_lost_steps").value() == out.stats.lost_steps == 1
        # Both ranks of attempt 2 resume from the step-2 checkpoint.
        assert metrics.histogram("checkpoint_load_seconds").stats()["count"] >= 2

    def test_characterization_reports_restarts(self, resilience_run):
        report = resilience_run.artifact("resilience")
        assert report.restarts > 0
        assert report.lost_steps >= 0
        assert report.interruptions > 0
        # dollars, physics, and the model agree the run was not free
        assert report.mix_cost > 0
        assert report.model_overhead_fraction > 0
        assert report.nodal_error < 1e-9

        text = resilience_run.render("resilience")
        assert "restarts" in text
        assert "mix cost" in text

    def test_the_default_run_renders_the_same_bytes(self, resilience_run):
        assert resilience_run.render("resilience") == RESILIENCE_TEXT

    def test_the_run_is_priced_before_any_rank_starts(self, monkeypatch):
        """Four spot ranks spiking every other hour are reclaimed more
        often than once an interval, which the checkpoint model cannot
        price: the point fails before a rank starts, not after the run."""
        from repro.errors import CostModelError
        from repro.harness.config import ResilienceParams
        from repro.harness.experiments import resilience_report

        def started(_runner):
            raise AssertionError("the runner started a rank")

        monkeypatch.setattr(ResilientRunner, "run", started)
        with pytest.raises(CostModelError, match="failure rate too high"):
            resilience_report(ResilienceParams(num_ranks=4,
                                               spike_probability=0.5))

    def test_render_resilience_table_columns(self, resilience_run):
        from repro.core.reporting import render_resilience_table

        table = render_resilience_table(resilience_run.artifact("resilience"))
        for column in ("restarts", "lost steps", "overhead", "mix cost"):
            assert column in table


RESILIENCE_TEXT = """\
mix assembly under spot reclaims (spot ranks [0, 1]):
   ranks     steps  restarts  lost steps  overhead  interrupts  mix cost $  on-dem $  model ovh  opt ckpt s
--------  --------  --------  ----------  --------  ----------  ----------  --------  ---------  ----------
       2         8         2           1     0.125           2        38.7      38.4      1.161       464.8
spot ranks: [0, 1]  reclaim rounds: [1, 2]  nodal error: 3.724e-11
"""
