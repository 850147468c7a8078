"""Tests for vectorized FEM assembly."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.errors import AssemblyError
from repro.fem.assembly import (
    assemble_advection,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    evaluate_at_quad,
    evaluate_gradient_at_quad,
    quad_points_physical,
)
from repro.fem.boundary import apply_dirichlet
from repro.fem.dofmap import DofMap
from repro.fem.mesh import StructuredBoxMesh
from repro.fem.quadrature import hex_quadrature


@pytest.fixture(scope="module")
def dm_q1():
    return DofMap(StructuredBoxMesh((4, 4, 4)), 1)


@pytest.fixture(scope="module")
def dm_q2():
    return DofMap(StructuredBoxMesh((3, 3, 3)), 2)


class TestMass:
    def test_total_mass_is_volume(self, dm_q1, dm_q2):
        for dm in (dm_q1, dm_q2):
            m = assemble_mass(dm)
            ones = np.ones(dm.num_dofs)
            assert ones @ (m @ ones) == pytest.approx(1.0, rel=1e-12)

    def test_total_mass_scales_with_box(self):
        dm = DofMap(StructuredBoxMesh((2, 2, 2), upper=(2, 3, 4)), 1)
        m = assemble_mass(dm)
        ones = np.ones(dm.num_dofs)
        assert ones @ (m @ ones) == pytest.approx(24.0, rel=1e-12)

    def test_symmetry(self, dm_q2):
        m = assemble_mass(dm_q2)
        assert abs(m - m.T).max() < 1e-14

    def test_scalar_coefficient(self, dm_q1):
        m1 = assemble_mass(dm_q1)
        m3 = assemble_mass(dm_q1, coefficient=3.0)
        assert abs(m3 - 3.0 * m1).max() < 1e-14

    def test_callable_constant_matches_fast_path(self, dm_q1):
        m_fast = assemble_mass(dm_q1, coefficient=2.5)
        m_call = assemble_mass(dm_q1, coefficient=lambda p: np.full(p.shape[0], 2.5))
        assert abs(m_fast - m_call).max() < 1e-12

    def test_variable_coefficient_integral(self, dm_q2):
        """1^T M(c) 1 = ∫ c; with c = x the integral over the cube is 1/2."""
        m = assemble_mass(dm_q2, coefficient=lambda p: p[:, 0])
        ones = np.ones(dm_q2.num_dofs)
        assert ones @ (m @ ones) == pytest.approx(0.5, rel=1e-12)


class TestStiffness:
    def test_constants_in_nullspace(self, dm_q1, dm_q2):
        for dm in (dm_q1, dm_q2):
            k = assemble_stiffness(dm)
            ones = np.ones(dm.num_dofs)
            assert np.max(np.abs(k @ ones)) < 1e-12

    def test_symmetry_and_psd(self, dm_q1):
        k = assemble_stiffness(dm_q1)
        assert abs(k - k.T).max() < 1e-13
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(dm_q1.num_dofs)
            assert v @ (k @ v) >= -1e-10

    def test_energy_of_linear_function(self, dm_q1):
        """∫ |∇(x)|² = 1 over the unit cube."""
        k = assemble_stiffness(dm_q1)
        u = dm_q1.dof_coords[:, 0]
        assert u @ (k @ u) == pytest.approx(1.0, rel=1e-12)

    def test_energy_of_quadratic_q2(self, dm_q2):
        """∫ |∇(x²+y²+z²)|² = 3 * ∫ 4x² = 4 over the unit cube."""
        k = assemble_stiffness(dm_q2)
        c = dm_q2.dof_coords
        u = c[:, 0] ** 2 + c[:, 1] ** 2 + c[:, 2] ** 2
        assert u @ (k @ u) == pytest.approx(4.0, rel=1e-12)

    def test_variable_coefficient(self, dm_q1):
        """u = x, c = x: ∫ x |∇x|² = 1/2."""
        k = assemble_stiffness(dm_q1, coefficient=lambda p: p[:, 0])
        u = dm_q1.dof_coords[:, 0]
        assert u @ (k @ u) == pytest.approx(0.5, rel=1e-12)

    def test_anisotropic_spacing(self):
        dm = DofMap(StructuredBoxMesh((4, 2, 2), upper=(2.0, 1.0, 1.0)), 1)
        k = assemble_stiffness(dm)
        u = dm.dof_coords[:, 0]
        # ∫_box |∇x|² = volume = 2
        assert u @ (k @ u) == pytest.approx(2.0, rel=1e-12)


class TestAdvection:
    def test_constant_velocity_row_sums(self, dm_q1):
        """A @ 1 = 0 since ∇(const) = 0 in the trial slot."""
        a = assemble_advection(dm_q1, np.array([1.0, 2.0, -1.0]))
        assert np.max(np.abs(a @ np.ones(dm_q1.num_dofs))) < 1e-13

    def test_linear_transport_integral(self, dm_q1):
        """1^T A u = ∫ β·∇u; with β = e_x, u = x this is 1."""
        a = assemble_advection(dm_q1, np.array([1.0, 0.0, 0.0]))
        u = dm_q1.dof_coords[:, 0]
        ones = np.ones(dm_q1.num_dofs)
        assert ones @ (a @ u) == pytest.approx(1.0, rel=1e-12)

    def test_callable_velocity(self, dm_q2):
        """β = (y, 0, 0), u = x: ∫ y ∂x/∂x = ∫ y = 1/2."""
        a = assemble_advection(
            dm_q2, lambda p: np.column_stack([p[:, 1], np.zeros(len(p)), np.zeros(len(p))])
        )
        u = dm_q2.dof_coords[:, 0]
        ones = np.ones(dm_q2.num_dofs)
        assert ones @ (a @ u) == pytest.approx(0.5, rel=1e-12)

    def test_precomputed_quad_values(self, dm_q1):
        rule = hex_quadrature(2)
        nc, nq = dm_q1.mesh.num_cells, rule.num_points
        beta = np.broadcast_to(np.array([1.0, 0.0, 0.0]), (nc, nq, 3))
        a1 = assemble_advection(dm_q1, beta, rule=rule)
        a2 = assemble_advection(dm_q1, np.array([1.0, 0.0, 0.0]), rule=rule)
        assert abs(a1 - a2).max() < 1e-13

    def test_bad_velocity_shape_rejected(self, dm_q1):
        with pytest.raises(AssemblyError):
            assemble_advection(dm_q1, np.zeros((5, 5)))


class TestLoad:
    def test_constant_load_sums_to_volume_integral(self, dm_q1):
        f = assemble_load(dm_q1, -6.0)  # the RD forcing term
        assert f.sum() == pytest.approx(-6.0, rel=1e-12)

    def test_callable_load(self, dm_q2):
        f = assemble_load(dm_q2, lambda p: p[:, 2])
        assert f.sum() == pytest.approx(0.5, rel=1e-12)


class TestEvaluation:
    def test_evaluate_scalar_at_quad(self, dm_q1):
        rule = hex_quadrature(2)
        u = dm_q1.dof_coords[:, 0] + 2 * dm_q1.dof_coords[:, 1]
        vals = evaluate_at_quad(dm_q1, u, rule)
        pts = quad_points_physical(dm_q1, rule)
        assert np.allclose(vals, pts[:, :, 0] + 2 * pts[:, :, 1])

    def test_evaluate_vector_at_quad(self, dm_q1):
        rule = hex_quadrature(2)
        u = np.column_stack([dm_q1.dof_coords[:, 0], dm_q1.dof_coords[:, 1]])
        vals = evaluate_at_quad(dm_q1, u, rule)
        pts = quad_points_physical(dm_q1, rule)
        assert vals.shape == (dm_q1.mesh.num_cells, rule.num_points, 2)
        assert np.allclose(vals[:, :, 0], pts[:, :, 0])

    def test_evaluate_gradient(self, dm_q2):
        rule = hex_quadrature(3)
        c = dm_q2.dof_coords
        u = c[:, 0] ** 2
        g = evaluate_gradient_at_quad(dm_q2, u, rule)
        pts = quad_points_physical(dm_q2, rule)
        assert np.allclose(g[:, :, 0], 2 * pts[:, :, 0], atol=1e-10)
        assert np.allclose(g[:, :, 1], 0.0, atol=1e-10)

    def test_bad_shape_rejected(self, dm_q1):
        with pytest.raises(AssemblyError):
            evaluate_at_quad(dm_q1, np.zeros((2, 2, 2)))


class TestPoissonIntegration:
    """Assemble-and-solve: -Δu = f with manufactured solution (scipy solve)."""

    def test_q1_poisson_converges(self):
        errors = []
        exact = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]) * np.sin(np.pi * p[:, 2])
        source = lambda p: 3 * np.pi**2 * exact(p)
        for n in (4, 8):
            dm = DofMap(StructuredBoxMesh((n, n, n)), 1)
            k = assemble_stiffness(dm)
            f = assemble_load(dm, source)
            a, b = apply_dirichlet(k, f, dm.boundary_dofs, 0.0)
            u = spla.spsolve(a.tocsc(), b)
            err = np.max(np.abs(u - exact(dm.dof_coords)))
            errors.append(err)
        rate = np.log2(errors[0] / errors[1])
        assert rate > 1.6  # second-order nodal accuracy

    def test_q2_poisson_exact_for_quadratic(self):
        """-Δ(x²+y²+z²) = -6: Q2 solves it to solver precision."""
        dm = DofMap(StructuredBoxMesh((3, 3, 3)), 2)
        exact = lambda p: p[:, 0] ** 2 + p[:, 1] ** 2 + p[:, 2] ** 2
        k = assemble_stiffness(dm)
        f = assemble_load(dm, -6.0)
        a, b = apply_dirichlet(k, f, dm.boundary_dofs, exact(dm.dof_coords[dm.boundary_dofs]))
        u = spla.spsolve(a.tocsc(), b)
        assert np.max(np.abs(u - exact(dm.dof_coords))) < 1e-10
