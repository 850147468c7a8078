"""Tests for graded tensor-product meshes (the NetGen/GMSH role)."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.errors import MeshError
from repro.fem.assembly import (
    assemble_advection,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
)
from repro.fem.boundary import apply_dirichlet
from repro.fem.dofmap import DofMap
from repro.fem.function import l2_error
from repro.fem.mesh import StructuredBoxMesh

# Per cell count: a geometrically stretched axis (each cell 1.4x, for n = 3
# 1.8x, the last), a symmetric tanh boundary layer and a uniform axis, as
# a mesh generator hands them over.
GRADED_AXES = {
    4: (
        np.array([0.0, 0.140766, 0.337838, 0.613739, 1.0]),
        np.array([0.0, 0.149146, 0.5, 0.850854, 1.0]),
        np.linspace(0.0, 1.0, 5),
    ),
    3: (
        np.array([0.0, 0.165563, 0.463576, 1.0]),
        np.array([0.0, 0.244728, 0.755272, 1.0]),
        np.linspace(0.0, 1.0, 4),
    ),
}


def graded_mesh(n=4):
    """A graded mesh of the unit cube (total volume 1)."""
    return StructuredBoxMesh((n, n, n), axis_coords=GRADED_AXES[n])


class TestGradedMesh:
    def test_construction_and_flags(self):
        mesh = graded_mesh()
        assert not mesh.is_uniform
        assert "graded" in repr(mesh)
        uniform = StructuredBoxMesh((3, 3, 3))
        assert uniform.is_uniform

    def test_axis_coords_validation(self):
        with pytest.raises(MeshError):
            StructuredBoxMesh((2, 2, 2), axis_coords=(np.array([0.0, 1.0]),) * 3)
        with pytest.raises(MeshError):
            StructuredBoxMesh(
                (2, 2, 2),
                axis_coords=(
                    np.array([0.0, 0.5, 0.4]),
                    np.linspace(0.0, 1.0, 3),
                    np.linspace(0.0, 1.0, 3),
                ),
            )

    def test_cell_volumes_sum_to_box(self):
        mesh = graded_mesh()
        assert mesh.cell_volumes.sum() == pytest.approx(1.0)

    def test_uniform_cell_spacings_match_spacing(self):
        mesh = StructuredBoxMesh((3, 4, 5), upper=(1.0, 2.0, 2.5))
        assert np.allclose(mesh.cell_spacings, [1.0 / 3.0, 0.5, 0.5])
        assert np.allclose(mesh.cell_volumes, 0.5 / 6.0)

    def test_vertex_coords_follow_axes(self):
        axis = np.array([0.0, 1.0, 3.0, 7.0]) / 7.0
        mesh = StructuredBoxMesh(
            (3, 3, 3),
            axis_coords=(axis, np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 4)),
        )
        xs = np.unique(DofMap(mesh, 1).dof_coords[:, 0])
        assert np.allclose(xs, axis)

    def test_cell_centers_inside_cells(self):
        mesh = graded_mesh()
        origins = mesh.cell_origin(np.arange(mesh.num_cells))
        assert np.all(mesh.cell_centers > origins)
        assert np.all(mesh.cell_centers < origins + mesh.cell_spacings)

    def test_extract_block_preserves_grading(self):
        mesh = graded_mesh(n=4)
        block = mesh.extract_block((0, 2), (0, 4), (0, 4))
        assert np.allclose(block.axis_coords[0], mesh.axis_coords[0][:3])
        assert not block.is_uniform

    def test_dof_axis_coords_q2(self):
        axis = np.array([0.0, 1.0, 3.0])
        mesh = StructuredBoxMesh((2, 2, 2), axis_coords=(axis, axis, axis))
        dofs_x = mesh.dof_axis_coords(2)[0]
        assert np.allclose(dofs_x, [0.0, 0.5, 1.0, 2.0, 3.0])


class TestGradedAssembly:
    def test_mass_total_is_volume(self):
        mesh = graded_mesh()
        dm = DofMap(mesh, 1)
        m = assemble_mass(dm)
        ones = np.ones(dm.num_dofs)
        assert ones @ (m @ ones) == pytest.approx(1.0, rel=1e-12)

    def test_stiffness_constants_in_nullspace(self):
        dm = DofMap(graded_mesh(), 2)
        k = assemble_stiffness(dm)
        assert np.max(np.abs(k @ np.ones(dm.num_dofs))) < 1e-11

    def test_stiffness_energy_of_linear(self):
        """∫ |∇x|² = volume regardless of grading."""
        mesh = graded_mesh()
        dm = DofMap(mesh, 1)
        k = assemble_stiffness(dm)
        u = dm.dof_coords[:, 0]
        assert u @ (k @ u) == pytest.approx(1.0, rel=1e-12)

    def test_load_of_one_is_volume(self):
        mesh = graded_mesh()
        dm = DofMap(mesh, 2)
        f = assemble_load(dm, 1.0)
        assert f.sum() == pytest.approx(1.0, rel=1e-12)

    def test_advection_consistency(self):
        """1^T A u = ∫ β·∇u; β = e_x, u = x: the volume."""
        mesh = graded_mesh()
        dm = DofMap(mesh, 1)
        a = assemble_advection(dm, np.array([1.0, 0.0, 0.0]))
        u = dm.dof_coords[:, 0]
        ones = np.ones(dm.num_dofs)
        assert ones @ (a @ u) == pytest.approx(1.0, rel=1e-12)

    def test_graded_matches_uniform_when_axes_uniform(self):
        """axis_coords=linspace must reproduce the uniform path exactly."""
        uniform = StructuredBoxMesh((3, 3, 3))
        explicit = StructuredBoxMesh(
            (3, 3, 3),
            axis_coords=(np.linspace(0.0, 1.0, 4),) * 3,
        )
        k1 = assemble_stiffness(DofMap(uniform, 2))
        k2 = assemble_stiffness(DofMap(explicit, 2))
        assert abs(k1 - k2).max() < 1e-13

    def test_q2_poisson_exact_on_graded_mesh(self):
        """The quadratic manufactured solution is in the Q2 space on ANY
        tensor-product mesh: the graded solve is still exact."""
        dm = DofMap(graded_mesh(n=3), 2)
        exact = lambda p: p[:, 0] ** 2 + p[:, 1] ** 2 + p[:, 2] ** 2
        k = assemble_stiffness(dm)
        f = assemble_load(dm, -6.0)
        a, b = apply_dirichlet(
            k, f, dm.boundary_dofs, exact(dm.dof_coords[dm.boundary_dofs])
        )
        u = spla.spsolve(a.tocsc(), b)
        assert np.max(np.abs(u - exact(dm.dof_coords))) < 1e-10


class TestBoundaryLayerPayoff:
    def test_grading_beats_uniform_for_boundary_layers(self):
        """A boundary-layer function is interpolated better by the graded
        mesh at equal DOF count — the reason the tooling exists."""
        layer = lambda p: np.exp(-30.0 * p[:, 0]) + np.exp(-30.0 * (1 - p[:, 0]))
        n = 10
        uniform = DofMap(StructuredBoxMesh((n, 2, 2)), 1)
        graded = DofMap(
            StructuredBoxMesh(
                (n, 2, 2),
                axis_coords=(
                    np.array([0.0, 0.017033, 0.055834, 0.13801, 0.288036, 0.5,
                              0.711964, 0.86199, 0.944166, 0.982967, 1.0]),
                    np.linspace(0.0, 1.0, 3),
                    np.linspace(0.0, 1.0, 3),
                ),
            ),
            1,
        )
        err_u = l2_error(uniform, layer(uniform.dof_coords), layer)
        err_g = l2_error(graded, layer(graded.dof_coords), layer)
        assert err_g < 0.7 * err_u


class TestGradedRD:
    def test_rd_solver_exact_on_graded_mesh(self):
        """End-to-end: the RD application accepts a graded mesh and still
        passes the paper's exactness check."""
        from repro.apps.reaction_diffusion import RDProblem, RDSolver

        problem = RDProblem(mesh_shape=(4, 4, 4), num_steps=3)
        solver = RDSolver(problem, assembly_mode="full")
        # Swap in a graded dofmap before any assembly happens.
        mesh = StructuredBoxMesh(
            (4, 4, 4),
            axis_coords=(
                np.array([0.0, 0.123077, 0.307692, 0.584615, 1.0]),
                np.linspace(0.0, 1.0, 5),
                np.array([0.0, 0.177894, 0.5, 0.822106, 1.0]),
            ),
        )
        solver.dofmap = DofMap(mesh, problem.order)
        solver._mass = assemble_mass(solver.dofmap)
        solver._load = assemble_load(solver.dofmap, solver.exact.SOURCE_VALUE)
        coords = solver.dofmap.dof_coords
        times = [problem.t0 + i * problem.dt for i in range(problem.bdf_order)]
        solver.bdf.initialize([solver.exact(coords, t) for t in times])
        solver.run()
        assert solver.nodal_error() < 1e-9
