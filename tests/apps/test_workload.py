"""Tests for the analytic workload models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.apps.workload import (
    NS_WORKLOAD,
    RD_WORKLOAD,
    AppWorkload,
    paper_rank_series,
)

cubes = st.integers(min_value=1, max_value=10).map(lambda q: q**3)


class TestSeries:
    def test_paper_series(self):
        assert paper_rank_series(1000) == [1, 8, 27, 64, 125, 216, 343, 512, 729, 1000]

    def test_truncated_series(self):
        assert paper_rank_series(128) == [1, 8, 27, 64, 125]


class TestSizes:
    def test_rd_dofs_per_rank(self):
        """Q2 on 20^3 elements: 41^3 dofs."""
        assert RD_WORKLOAD.dofs_per_rank(8000) == 41**3

    def test_ns_dofs_per_rank(self):
        """Q1 x 4 fields on 20^3 elements: 4 * 21^3 dofs."""
        assert NS_WORKLOAD.dofs_per_rank(8000) == 4 * 21**3

    def test_face_dofs(self):
        assert RD_WORKLOAD.face_dofs(8000) == 41**2
        assert NS_WORKLOAD.face_dofs(8000) == 4 * 21**2

    def test_non_cube_rejected(self):
        with pytest.raises(ReproError):
            RD_WORKLOAD.dofs_per_rank(100)


class TestIterations:
    @given(p=cubes)
    @settings(max_examples=20, deadline=None)
    def test_iterations_grow_with_ranks(self, p):
        if p > 1:
            assert RD_WORKLOAD.solver_iterations(p) > RD_WORKLOAD.solver_iterations(1)

    def test_single_rank_baseline(self):
        assert RD_WORKLOAD.solver_iterations(1) == RD_WORKLOAD.base_solver_iters

    def test_ns_needs_more_iterations_than_rd(self):
        for p in (1, 64, 1000):
            assert NS_WORKLOAD.solver_iterations(p) > RD_WORKLOAD.solver_iterations(p)

    def test_validation(self):
        with pytest.raises(ReproError):
            RD_WORKLOAD.solver_iterations(0)


class TestCommunication:
    def test_halo_neighbors(self):
        assert RD_WORKLOAD.halo_neighbors(1) == 0
        assert RD_WORKLOAD.halo_neighbors(8) == 3
        assert RD_WORKLOAD.halo_neighbors(27) == 6
        assert RD_WORKLOAD.halo_neighbors(1000) == 6

    def test_halo_bytes_scale_with_fields(self):
        """NS moves 4 fields: ~4x the halo bytes of RD at equal face size
        modulo the order-1 vs order-2 face dof difference."""
        rd = RD_WORKLOAD.face_dofs(8000)
        ns = NS_WORKLOAD.face_dofs(8000)
        assert ns > rd  # 4 * 21^2 > 41^2

    def test_no_halo_on_single_rank(self):
        assert RD_WORKLOAD.halo_neighbors(1) == 0

    def test_allreduce_count_scales_with_iterations(self):
        assert NS_WORKLOAD.allreduce_count(64) == pytest.approx(
            3 * NS_WORKLOAD.solver_iterations(64)
        )

    @given(p=cubes)
    @settings(max_examples=15, deadline=None)
    def test_solve_halo_grows_with_ranks(self, p):
        if p > 1:
            assert NS_WORKLOAD.halo_neighbors(p) > 0


class TestFlops:
    def test_assembly_scales_linearly_with_elements(self):
        assert RD_WORKLOAD.assembly_flops(16000) == pytest.approx(
            2 * RD_WORKLOAD.assembly_flops(8000)
        )

    def test_solve_flops_grow_with_ranks(self):
        assert RD_WORKLOAD.solve_flops(8000, 1000) > RD_WORKLOAD.solve_flops(8000, 1)

    def test_ns_more_expensive_per_iteration(self):
        """NS total per-rank flops exceed RD's at the paper's 20^3 load."""
        e = 8000
        rd_total = (
            RD_WORKLOAD.assembly_flops(e)
            + RD_WORKLOAD.precond_flops(e)
            + RD_WORKLOAD.solve_flops(e, 64)
        )
        ns_total = (
            NS_WORKLOAD.assembly_flops(e)
            + NS_WORKLOAD.precond_flops(e)
            + NS_WORKLOAD.solve_flops(e, 64)
        )
        assert ns_total > rd_total

    def test_invalid_workload(self):
        with pytest.raises(ReproError):
            AppWorkload(
                name="bad", fields=0, order=1, assembly_flops_per_element=1,
                precond_flops_per_dof=1, solve_flops_per_dof_iter=1,
                base_solver_iters=1, iter_growth=0,
            )


class TestMemoryModel:
    def test_paper_load_fits_everywhere(self):
        """20^3 elements/rank fits even the 1 GB/core 2006 nodes — which
        is why the paper could run the sweep on all four platforms."""
        for wl in (RD_WORKLOAD, NS_WORKLOAD):
            assert wl.memory_per_rank_bytes(20**3) < 1e9

    def test_bigger_local_meshes_need_the_cloud(self):
        """A 32^3-elements/rank RD problem exceeds 1 GB/core but fits
        cc2.8xlarge's 3.8 GB — §VIII's 'cutting edge resources' point."""
        need = RD_WORKLOAD.memory_per_rank_bytes(32**3)
        assert need > 1e9
        assert need < 3.8e9

    def test_memory_grows_with_elements(self):
        assert (
            RD_WORKLOAD.memory_per_rank_bytes(27_000)
            > RD_WORKLOAD.memory_per_rank_bytes(8_000)
        )

    def test_q2_heavier_than_q1_per_element(self):
        """Q2's 125-wide stencil dwarfs Q1's 27-wide one."""
        assert (
            RD_WORKLOAD.memory_per_rank_bytes(8000)
            > NS_WORKLOAD.memory_per_rank_bytes(8000)
        )


class TestAgainstExecutedRuns:
    def test_rd_iteration_count_order_of_magnitude(self):
        """The model's base iteration count is within 3x of an executed
        sequential solve (loose anchor: constants feed a *shape* model)."""
        from repro.apps.reaction_diffusion import RDProblem, RDSolver

        solver = RDSolver(
            RDProblem(mesh_shape=(6, 6, 6), num_steps=3), assembly_mode="combine"
        )
        solver.run()
        measured = np.mean(solver.solve_iterations)
        assert measured / 3 < RD_WORKLOAD.base_solver_iters < measured * 3
