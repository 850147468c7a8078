"""Tests for distributed BiCGStab and the distributed NS runner."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ReproError, SolverError
from repro.apps.navier_stokes import (
    DistributedNSStep,
    NSProblem,
    NSSolver,
    run_ns_distributed,
)
from repro.io.checkpoint import read_state, save_state
from repro.la.distributed import DistMatrix, dist_bicgstab
from repro.la.krylov import bicgstab
from repro.network.model import GIGABIT_ETHERNET, INFINIBAND_4X_DDR, NetworkModel
from repro.network.topology import ClusterTopology
from repro.simmpi import run_spmd


def nonsym_system(n=60, seed=3):
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=0.2, random_state=rng)
    a = (a + sp.eye(n) * n).tocsr()
    b = rng.standard_normal(n)
    return a, b


class TestDistBiCGStab:
    @pytest.mark.parametrize("num_ranks", [1, 2, 4])
    def test_matches_sequential(self, num_ranks):
        a, b = nonsym_system()
        x_seq = bicgstab(a, b, tol=1e-12, maxiter=500).x

        def main(comm):
            mat = DistMatrix.from_global(comm, a)
            result = dist_bicgstab(mat, mat.vector_from_global(b), tol=1e-12,
                                   maxiter=500)
            assert result.converged
            from repro.la.distributed import DistVector

            return mat.gather_global(
                DistVector(comm, result.x, mat.ghost_indices.size)
            )

        x_dist = run_spmd(main, num_ranks, real_timeout=60.0).returns[0]
        assert np.allclose(x_dist, x_seq, atol=1e-8)

    def test_zero_rhs(self):
        a, _ = nonsym_system()

        def main(comm):
            mat = DistMatrix.from_global(comm, a)
            result = dist_bicgstab(mat, mat.vector_from_global(np.zeros(a.shape[0])))
            return result.converged, float(np.max(np.abs(result.x)))

        converged, max_abs = run_spmd(main, 2, real_timeout=30.0).returns[0]
        assert converged and max_abs == 0.0

    def test_initial_guess(self):
        a, b = nonsym_system()
        x_true = bicgstab(a, b, tol=1e-13, maxiter=500).x

        def main(comm):
            mat = DistMatrix.from_global(comm, a)
            rhs = mat.vector_from_global(b)
            x0 = mat.vector_from_global(x_true)
            result = dist_bicgstab(mat, rhs, x0=x0, tol=1e-10)
            return result.iterations

        assert run_spmd(main, 2, real_timeout=30.0).returns[0] == 0


class TestDistributedNS:
    PROBLEM = NSProblem(mesh_shape=(5, 5, 5), dt=0.002, num_steps=3)

    @pytest.mark.parametrize("num_ranks", [1, 2, 4])
    def test_matches_sequential_errors(self, num_ranks):
        seq = NSSolver(self.PROBLEM)
        seq.run()

        def main(comm):
            vel, p, _log = run_ns_distributed(comm, self.PROBLEM, discard=1)
            return vel, p

        result = run_spmd(main, num_ranks, real_timeout=180.0)
        for vel, p in result.returns:
            assert vel == pytest.approx(seq.velocity_error(), rel=1e-6)
            assert p == pytest.approx(seq.pressure_error(), rel=1e-6)

    def test_phase_log_populated(self):
        def main(comm):
            _vel, _p, log = run_ns_distributed(comm, self.PROBLEM, discard=1)
            avg = log.averages()
            return avg.assembly, avg.solve, len(log.iterations)

        assembly, solve, iters = run_spmd(main, 2, real_timeout=180.0).returns[0]
        assert assembly > 0
        assert solve > 0
        assert iters == 3

    def test_solve_time_tracks_interconnect(self):
        """NS solve phase is slower over 1 GbE than over InfiniBand —
        the figure-5 mechanism, executed."""

        def main(comm):
            _vel, _p, log = run_ns_distributed(comm, self.PROBLEM, discard=1)
            return log.averages().solve

        eth = ClusterTopology(2, 1, NetworkModel(GIGABIT_ETHERNET))
        ib = ClusterTopology(2, 1, NetworkModel(INFINIBAND_4X_DDR))
        t_eth = max(run_spmd(main, 2, topology=eth, real_timeout=180.0).returns)
        t_ib = max(run_spmd(main, 2, topology=ib, real_timeout=180.0).returns)
        assert t_ib < t_eth

    @pytest.mark.parametrize("steps", [1, 3])
    def test_checkpoint_counts_every_step_and_solve(self, tmp_path, steps):
        """The distributed step advances the solver's counters like the
        sequential one, so a checkpoint of it resumes at the right step."""
        path = tmp_path / "ns.rprc"

        def main(comm):
            step = DistributedNSStep(comm, self.PROBLEM)
            step.run(steps)
            if comm.rank == 0:
                save_state(path, step.solver)

        run_spmd(main, 2, real_timeout=180.0)
        state, _ = read_state(path, self.PROBLEM)
        assert state.step == steps
        counters = state.counters
        assert len(counters["momentum_iterations"]) == 3 * steps
        assert len(counters["pressure_iterations"]) == steps
        assert all(n > 0 for n in counters["momentum_iterations"])

    def test_bad_cpu_factor(self):
        def main(comm):
            run_ns_distributed(comm, self.PROBLEM, cpu_speed_factor=0.0)

        with pytest.raises(ReproError):
            run_spmd(main, 1, real_timeout=60.0)
