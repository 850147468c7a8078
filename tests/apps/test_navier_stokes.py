"""Tests for the Navier-Stokes application (Ethier-Steinman benchmark)."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.apps.navier_stokes import NSProblem, NSSolver


class TestNSProblem:
    def test_domain_is_es_cube(self):
        mesh = NSProblem().mesh()
        assert np.allclose(mesh.lower, [-1, -1, -1])
        assert np.allclose(mesh.upper, [1, 1, 1])

    def test_validation(self):
        with pytest.raises(ReproError):
            NSProblem(dt=0.0)
        with pytest.raises(ReproError):
            NSProblem(num_steps=0)


class TestNSSolver:
    def test_short_run_stays_at_discretization_error(self):
        """After several steps the velocity error stays at the spatial
        interpolation level — the scheme does not drift or blow up."""
        solver = NSSolver(NSProblem(mesh_shape=(6, 6, 6), dt=0.002, num_steps=6))
        initial_err = solver.velocity_error()
        solver.run()
        assert solver.velocity_error() < 2.0 * initial_err

    def test_velocity_second_order_in_space(self):
        """Simultaneous space-time refinement shows ~O(h^2) velocity error
        (the convergence behaviour the validated LifeV solver exhibits)."""
        errors = []
        for shape, dt in [((4, 4, 4), 0.002), ((8, 8, 8), 0.001)]:
            steps = round(0.012 / dt) - 1
            solver = NSSolver(NSProblem(mesh_shape=shape, dt=dt, num_steps=steps))
            solver.run()
            errors.append(solver.velocity_error())
        rate = np.log2(errors[0] / errors[1])
        assert rate > 1.6

    def test_pressure_error_bounded_and_improving(self):
        errors = []
        for shape, dt in [((4, 4, 4), 0.002), ((8, 8, 8), 0.001)]:
            steps = round(0.012 / dt) - 1
            solver = NSSolver(NSProblem(mesh_shape=shape, dt=dt, num_steps=steps))
            solver.run()
            errors.append(solver.pressure_error())
        assert errors[1] < errors[0]

    def test_divergence_decays_from_startup(self):
        solver = NSSolver(NSProblem(mesh_shape=(6, 6, 6), dt=0.002, num_steps=8))
        divs = []
        for _ in range(8):
            solver.step()
            divs.append(solver.divergence_norm())
        assert divs[-1] < divs[0]

    def test_phase_structure(self):
        solver = NSSolver(
            NSProblem(mesh_shape=(5, 5, 5), dt=0.002, num_steps=7), discard=2
        )
        log = solver.run()
        avg = log.averages()
        assert avg.assembly > 0
        assert avg.preconditioner >= 0
        assert avg.solve > 0
        # NS iterations are solve-dominated (7 linear solves per step).
        assert avg.solve > avg.preconditioner

    def test_iteration_counters(self):
        solver = NSSolver(NSProblem(mesh_shape=(4, 4, 4), dt=0.002, num_steps=3))
        solver.run()
        assert len(solver.momentum_iterations) == 9  # 3 components x 3 steps
        assert len(solver.pressure_iterations) == 3
        # The pressure Poisson problem is the stiff one.
        assert max(solver.pressure_iterations) >= max(solver.momentum_iterations)

    def test_velocity_field_shape(self):
        solver = NSSolver(NSProblem(mesh_shape=(3, 3, 3), dt=0.002, num_steps=1))
        solver.step()
        assert solver.velocity.shape == (solver.dofmap.num_dofs, 3)

    def test_ns_solve_heavier_than_rd_at_equal_elements(self):
        """The paper: 'The Navier-Stokes test is more computationally
        demanding than the simple RD test.'  At equal element counts the
        NS step runs 7 linear solves (3 momentum + pressure + 3
        projection) against RD's single CG: both the solve-phase time and
        the total Krylov iterations per step are higher.  (RD's Q2
        assembly is its own dominant phase, so totals are compared in the
        workload model, not here.)"""
        from repro.apps.reaction_diffusion import RDProblem, RDSolver

        shape = (5, 5, 5)
        rd = RDSolver(
            RDProblem(mesh_shape=shape, num_steps=4), assembly_mode="full",
            discard=1,
        )
        rd.run()
        ns = NSSolver(NSProblem(mesh_shape=shape, dt=0.002, num_steps=4), discard=1)
        ns.run()
        assert ns.log.averages().solve > rd.log.averages().solve
        rd_iters_per_step = np.mean(rd.solve_iterations)
        ns_iters_per_step = (
            sum(ns.momentum_iterations) + sum(ns.pressure_iterations)
        ) / ns.problem.num_steps
        assert ns_iters_per_step > rd_iters_per_step
