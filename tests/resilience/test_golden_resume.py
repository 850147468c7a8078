"""Golden bit-exact-resume tests.

The restart protocol's contract is *transparency*: a run that is
killed at step k and resumed from the latest checkpoint must be
indistinguishable — to the last ulp — from a run that never failed.
These tests compare solution vectors, residual histories, and
collective counters between straight and killed-and-resumed runs, for
both applications: the runner picks the distributed step from the
problem's type.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.navier_stokes import NSProblem, NSSolver
from repro.apps.reaction_diffusion import RDProblem, RDSolver
from repro.io.checkpoint import load_state, save_state
from repro.resilience.faults import FaultEvent, FaultPlan
from repro.resilience.runner import ResilientRunner

pytestmark = pytest.mark.resilience


class TestDistributedRDGolden:
    """Straight vs kill-at-k for the distributed RD loop."""

    PROBLEM = RDProblem(mesh_shape=(4, 4, 4), num_steps=5)

    # (3, 2) reclaims at step 3, between the checkpoints at 2 and 4.
    @pytest.mark.parametrize("kill_step, checkpoint_every", [(1, 1), (3, 2), (4, 2)])
    def test_bit_exact_resume(self, tmp_path, kill_step, checkpoint_every):
        problem = self.PROBLEM
        straight = ResilientRunner(
            problem, num_ranks=2, checkpoint_dir=tmp_path / "straight",
            checkpoint_every=checkpoint_every,
        ).run()

        plan = FaultPlan([
            FaultEvent(kind="spot_reclaim", rank=1, at_step=kill_step)
        ])
        killed = ResilientRunner(
            problem, num_ranks=2, plan=plan,
            checkpoint_dir=tmp_path / "killed",
            checkpoint_every=checkpoint_every,
        ).run()

        assert killed.stats.restarts == 1
        # The ulp-level contract: identical solution bytes ...
        assert np.array_equal(straight.solution, killed.solution)
        assert straight.solution.tobytes() == killed.solution.tobytes()
        assert straight.t == killed.t
        assert straight.nodal_error == killed.nodal_error
        # ... identical per-step records: iteration counts, the full
        # residual history, and the solver's collective counters.
        assert len(straight.records) == len(killed.records)
        for a, b in zip(straight.records, killed.records):
            assert a == b  # StepRecord is frozen: field-wise equality
            assert a.residuals == b.residuals
            assert a.allreduce_rounds == b.allreduce_rounds

    def test_three_rank_resume(self, tmp_path):
        problem = replace(self.PROBLEM, num_steps=4)
        straight = ResilientRunner(
            problem, num_ranks=3, checkpoint_dir=tmp_path / "s"
        ).run()
        plan = FaultPlan([FaultEvent(kind="rank_kill", rank=2, at_step=2)])
        killed = ResilientRunner(
            problem, num_ranks=3, plan=plan, checkpoint_dir=tmp_path / "k"
        ).run()
        assert killed.stats.restarts == 1
        assert straight.solution.tobytes() == killed.solution.tobytes()
        assert straight.records == killed.records


class TestDistributedNSGolden(TestDistributedRDGolden):
    """The same contract for the distributed NS loop: velocity, pressure
    and the seven solves' records resume bit-exactly."""

    PROBLEM = NSProblem(mesh_shape=(4, 4, 4), num_steps=5)


class TestSequentialGolden:
    """Checkpoint/restore through io.checkpoint must also be exact."""

    def test_rd_solver_bit_exact_resume(self, tmp_path):
        problem = RDProblem(mesh_shape=(4, 4, 4), num_steps=6)
        straight = RDSolver(problem, assembly_mode="combine")
        for _ in range(6):
            straight.step()

        first = RDSolver(problem, assembly_mode="combine")
        for _ in range(3):
            first.step()
        path = tmp_path / "rd.rprc"
        save_state(path, first)

        resumed = RDSolver(problem, assembly_mode="combine")
        load_state(path, resumed)
        assert resumed.steps_taken == 3
        assert resumed.solve_iterations == first.solve_iterations
        assert resumed.residual_norms == first.residual_norms
        for _ in range(3):
            resumed.step()

        assert resumed.solution.tobytes() == straight.solution.tobytes()
        assert resumed.t == straight.t
        assert resumed.steps_taken == straight.steps_taken
        # Residual histories for the overlapping (resumed) steps match.
        assert resumed.solve_iterations == straight.solve_iterations
        assert resumed.residual_norms == straight.residual_norms

    def test_ns_solver_bit_exact_resume(self, tmp_path):
        problem = NSProblem(mesh_shape=(3, 3, 3), num_steps=4)
        straight = NSSolver(problem)
        for _ in range(4):
            straight.step()

        first = NSSolver(problem)
        for _ in range(2):
            first.step()
        path = tmp_path / "ns.rprc"
        save_state(path, first)

        resumed = NSSolver(problem)
        load_state(path, resumed)
        for _ in range(2):
            resumed.step()

        assert resumed.velocity.tobytes() == straight.velocity.tobytes()
        assert resumed.pressure.tobytes() == straight.pressure.tobytes()
        assert resumed.momentum_iterations == straight.momentum_iterations
        assert resumed.pressure_iterations == straight.pressure_iterations
