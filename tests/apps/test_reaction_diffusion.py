"""Tests for the RD application: the paper's exactness check and more."""

from collections import Counter

import numpy as np
import pytest

from repro.errors import ReproError
from repro.apps.reaction_diffusion import RDProblem, RDSolver, run_rd_distributed
from repro.apps.stepping import slab_ownership
from repro.fem.assembly import assemble_load
from repro.fem.dofmap import DofMap
from repro.fem.mesh import StructuredBoxMesh
from repro.simmpi import run_spmd


class TestRDProblem:
    def test_defaults_match_paper(self):
        prob = RDProblem()
        assert prob.mesh_shape == (20, 20, 20)
        assert prob.order == 2
        assert prob.bdf_order == 2

    def test_validation(self):
        with pytest.raises(ReproError):
            RDProblem(t0=0.0)
        with pytest.raises(ReproError):
            RDProblem(num_steps=0)
        with pytest.raises(ReproError):
            RDProblem(dt=2.0, t0=1.0)  # loses positive definiteness


class TestRDSequential:
    def test_exactness_q2_bdf2(self):
        """The paper's correctness check: Q2+BDF2 reproduce the
        manufactured solution to solver tolerance."""
        solver = RDSolver(RDProblem(mesh_shape=(5, 5, 5), num_steps=6),
                          assembly_mode="combine")
        solver.run()
        assert solver.nodal_error() < 1e-9
        assert solver.l2_solution_error() < 1e-9

    def test_exactness_full_assembly_mode(self):
        solver = RDSolver(RDProblem(mesh_shape=(4, 4, 4), num_steps=4),
                          assembly_mode="full")
        solver.run()
        assert solver.nodal_error() < 1e-9

    def test_assembly_modes_agree(self):
        a = RDSolver(RDProblem(mesh_shape=(3, 3, 3), num_steps=3), assembly_mode="full")
        b = RDSolver(RDProblem(mesh_shape=(3, 3, 3), num_steps=3), assembly_mode="combine")
        a.run()
        b.run()
        assert np.allclose(a.solution, b.solution, atol=1e-9)

    def test_load_cache_bit_identical(self):
        """The constant-source load vector is assembled once and shared
        read-only: after a run it still equals a fresh assembly bit for
        bit, and nobody can write to it (or to M) in place."""
        solver = RDSolver(RDProblem(mesh_shape=(4, 4, 4), num_steps=3),
                          assembly_mode="combine")
        solver.run()
        fresh = assemble_load(solver.dofmap, solver.exact.SOURCE_VALUE)
        np.testing.assert_array_equal(solver._load, fresh)
        with pytest.raises(ValueError):
            solver._load[0] = 1.0
        with pytest.raises(ValueError):
            solver._mass.data *= 2.0

    def test_q1_is_not_exact(self):
        """Q1 cannot represent |x|^2: the L2 error sits at the O(h^2)
        interpolation level (nodal values can be superconvergent on the
        uniform grid), which is what makes the Q2 exactness test
        meaningful."""
        solver = RDSolver(RDProblem(mesh_shape=(5, 5, 5), order=1, num_steps=3),
                          assembly_mode="combine")
        solver.run()
        assert solver.l2_solution_error() > 1e-3

    def test_bdf1_is_not_exact(self):
        """BDF1 differentiates t^2 inexactly: time error dominates."""
        solver = RDSolver(
            RDProblem(mesh_shape=(4, 4, 4), bdf_order=1, num_steps=4),
            assembly_mode="combine",
        )
        solver.run()
        assert solver.nodal_error() > 1e-4

    def test_phases_recorded(self):
        solver = RDSolver(RDProblem(mesh_shape=(4, 4, 4), num_steps=7),
                          assembly_mode="combine", discard=2)
        log = solver.run()
        assert len(log.iterations) == 7
        avg = log.averages()
        assert avg.assembly > 0
        assert avg.solve > 0

    def test_solver_iteration_counts_recorded(self):
        solver = RDSolver(RDProblem(mesh_shape=(4, 4, 4), num_steps=3),
                          assembly_mode="combine")
        solver.run()
        assert len(solver.solve_iterations) == 3
        assert all(n > 0 for n in solver.solve_iterations)

    def test_ilu0_reduces_solver_iterations(self):
        base = RDSolver(RDProblem(mesh_shape=(4, 4, 4), num_steps=2),
                        preconditioner="jacobi", assembly_mode="combine")
        fancy = RDSolver(RDProblem(mesh_shape=(4, 4, 4), num_steps=2),
                         preconditioner="ilu0", assembly_mode="combine")
        base.run()
        fancy.run()
        assert sum(fancy.solve_iterations) <= sum(base.solve_iterations)

    def test_invalid_assembly_mode(self):
        with pytest.raises(ReproError):
            RDSolver(RDProblem(), assembly_mode="magic")


class TestSlabOwnership:
    def test_covers_all_dofs(self):
        dm = DofMap(StructuredBoxMesh((4, 4, 4)), 2)
        ownership = slab_ownership(dm, 3)
        combined = np.concatenate(ownership)
        assert np.array_equal(np.sort(combined), np.arange(dm.num_dofs))

    def test_slabs_are_contiguous(self):
        dm = DofMap(StructuredBoxMesh((4, 4, 4)), 1)
        for idx in slab_ownership(dm, 2):
            assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))

    def test_slab_is_geometric(self):
        """Each rank's dofs occupy a contiguous z-range."""
        dm = DofMap(StructuredBoxMesh((4, 4, 4)), 1)
        ownership = slab_ownership(dm, 2)
        z0 = dm.dof_coords[ownership[0]][:, 2]
        z1 = dm.dof_coords[ownership[1]][:, 2]
        assert z0.max() < z1.min() + 1e-12

    def test_too_many_ranks(self):
        dm = DofMap(StructuredBoxMesh((2, 2, 2)), 1)
        with pytest.raises(ReproError):
            slab_ownership(dm, 50)


class TestRDDistributed:
    @pytest.mark.parametrize("num_ranks", [1, 2, 4])
    def test_distributed_matches_exact_solution(self, num_ranks):
        """The distributed RD run passes the same exactness check."""
        prob = RDProblem(mesh_shape=(4, 4, 4), num_steps=3)

        def main(comm):
            _owned, log, err = run_rd_distributed(
                comm, prob, preconditioner="jacobi", discard=1
            )
            return err, len(log.iterations)

        result = run_spmd(main, num_ranks, real_timeout=60.0)
        for err, iters in result.returns:
            assert err < 1e-8
            assert iters == 3

    def test_distributed_matches_sequential_values(self):
        prob = RDProblem(mesh_shape=(4, 4, 4), num_steps=2)
        seq = RDSolver(prob, assembly_mode="full", preconditioner="jacobi")
        seq.run()

        def main(comm):
            owned, _log, _err = run_rd_distributed(
                comm, prob, preconditioner="jacobi", discard=0
            )
            return comm.gather(owned, root=0)

        pieces = run_spmd(main, 2, real_timeout=60.0).returns[0]
        dist_solution = np.concatenate(pieces)
        assert np.allclose(dist_solution, seq.solution, atol=1e-8)

    def test_collective_kinds_and_counts_per_rank(self):
        """The hot loop's collective footprint, exactly: one setup
        alltoall, one gather + bcast per step, and the fused-CG
        allreduces.  A new collective kind in the step fails here."""
        prob = RDProblem(mesh_shape=(6, 6, 6), num_steps=8)

        def main(comm):
            run_rd_distributed(comm, prob, preconditioner="block-jacobi")

        tracer = run_spmd(main, 2, trace=True, real_timeout=60.0).tracer
        assert Counter(
            r.label for r in tracer.snapshot()
            if (r.rank, r.kind) == (0, "collective")
        ) == {
            "alltoall": 1, "allreduce": 159, "gather": 8, "bcast": 8,
        }

    def test_virtual_phase_times_positive(self):
        prob = RDProblem(mesh_shape=(4, 4, 4), num_steps=3)

        def main(comm):
            _owned, log, _err = run_rd_distributed(comm, prob, discard=1)
            avg = log.averages()
            return avg.assembly, avg.solve

        result = run_spmd(main, 2, real_timeout=60.0)
        for assembly, solve in result.returns:
            assert assembly > 0
            assert solve > 0

    def test_faster_cpu_charges_less_virtual_time(self):
        prob = RDProblem(mesh_shape=(4, 4, 4), num_steps=2)

        def main(comm, factor):
            _owned, log, _err = run_rd_distributed(
                comm, prob, cpu_speed_factor=factor, discard=0
            )
            return log.averages().assembly

        slow = run_spmd(main, 2, args=(1.0,), real_timeout=60.0).returns[0]
        fast = run_spmd(main, 2, args=(4.0,), real_timeout=60.0).returns[0]
        # Wall-clock noise exists, but a 4x factor must show clearly.
        assert fast < slow

    def test_bad_cpu_factor(self):
        def main(comm):
            run_rd_distributed(comm, RDProblem(mesh_shape=(3, 3, 3)), cpu_speed_factor=0.0)

        with pytest.raises(ReproError):
            run_spmd(main, 1, real_timeout=30.0)

    def test_unknown_preconditioner(self):
        def main(comm):
            run_rd_distributed(
                comm, RDProblem(mesh_shape=(3, 3, 3), num_steps=1),
                preconditioner="amg",
            )

        with pytest.raises(ReproError):
            run_spmd(main, 1, real_timeout=30.0)
