"""Tests for the exact solutions: do they satisfy their PDEs?"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.apps.exact import EthierSteinmanSolution, RDManufacturedSolution

points_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.95),
    ),
    min_size=1,
    max_size=10,
).map(np.array)


class TestRDManufactured:
    def setup_method(self):
        self.sol = RDManufacturedSolution()

    def test_value_at_figure1_time(self):
        """Figure 1: at t = 2 s the solution spans [0, 12] on the unit cube."""
        corners = np.array([[0, 0, 0], [1, 1, 1]])
        vals = self.sol(corners, 2.0)
        assert vals[0] == pytest.approx(0.0)
        assert vals[1] == pytest.approx(12.0)

    @given(points=points_strategy, t=st.floats(min_value=0.5, max_value=3.0))
    @settings(max_examples=30, deadline=None)
    def test_pde_residual_is_zero(self, points, t):
        residual = self.sol.residual(points, t)
        assert np.max(np.abs(residual)) < 1e-10

    def test_singularity_guard(self):
        with pytest.raises(ReproError):
            self.sol.residual(np.array([[0.5, 0.5, 0.5]]), 0.0)

    def test_isosurface_levels_match_figure1(self):
        levels = self.sol.isosurface_levels()
        assert len(levels) == 25
        assert np.allclose(np.diff(levels), 0.5)


class TestEthierSteinman:
    def setup_method(self):
        self.sol = EthierSteinmanSolution()

    def test_default_parameters(self):
        assert self.sol.a == pytest.approx(np.pi / 4)
        assert self.sol.d == pytest.approx(np.pi / 2)

    def test_invalid_viscosity(self):
        with pytest.raises(ReproError):
            EthierSteinmanSolution(nu=0.0)

    @given(
        points=points_strategy,
        t=st.floats(min_value=0.0, max_value=0.01),
    )
    @settings(max_examples=20, deadline=None)
    def test_velocity_is_divergence_free(self, points, t):
        div = self.sol.divergence(points, t)
        assert np.max(np.abs(div)) < 1e-6

    def test_momentum_equations_satisfied(self):
        """The implemented formulas satisfy the NSE (finite-difference check)."""
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.8, 0.8, size=(20, 3))
        residual = self.sol.momentum_residual(pts, t=0.003)
        scale = np.max(np.abs(self.sol.velocity(pts, 0.003)))
        assert np.max(np.abs(residual)) < 1e-3 * max(scale, 1.0)

    def test_momentum_with_different_viscosity(self):
        sol = EthierSteinmanSolution(nu=0.5)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.5, 0.5, size=(10, 3))
        residual = sol.momentum_residual(pts, t=0.002)
        assert np.max(np.abs(residual)) < 1e-3

    def test_time_decay(self):
        """Velocity decays as exp(-nu d^2 t)."""
        pts = np.array([[0.2, -0.3, 0.4]])
        v0 = self.sol.velocity(pts, 0.0)
        v1 = self.sol.velocity(pts, 0.1)
        expected = np.exp(-self.sol.nu * self.sol.d**2 * 0.1)
        assert np.allclose(v1, v0 * expected, rtol=1e-12)

    def test_pressure_decays_twice_as_fast(self):
        pts = np.array([[0.1, 0.2, -0.1]])
        # Pressure is quadratic in the decaying fields.
        p0 = self.sol.pressure(pts, 0.0)
        p1 = self.sol.pressure(pts, 0.1)
        expected = np.exp(-2 * self.sol.nu * self.sol.d**2 * 0.1)
        assert p1[0] == pytest.approx(p0[0] * expected, rel=1e-12)

    def test_figure2_time_evaluates(self):
        """The fields are finite and nontrivial at the paper's t = 0.003 s."""
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, size=(50, 3))
        v = self.sol.velocity(pts, 0.003)
        p = self.sol.pressure(pts, 0.003)
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(p))
        assert np.max(np.abs(v)) > 0.5
