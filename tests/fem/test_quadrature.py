"""Tests for Gauss-Legendre quadrature rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ElementError
from repro.fem.quadrature import (
    QuadratureRule,
    default_rule_for_order,
    gauss_legendre_1d,
    hex_quadrature,
)


class TestGaussLegendre1D:
    def test_weights_sum_to_interval_length(self):
        for n in range(1, 8):
            rule = gauss_legendre_1d(n)
            assert rule.weights.sum() == pytest.approx(1.0)

    def test_points_inside_unit_interval(self):
        for n in range(1, 8):
            rule = gauss_legendre_1d(n)
            assert np.all(rule.points >= 0.0)
            assert np.all(rule.points <= 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_polynomial_exactness(self, n):
        """n-point Gauss integrates monomials up to degree 2n-1 exactly."""
        rule = gauss_legendre_1d(n)
        x = rule.points[:, 0]
        for degree in range(2 * n):
            integral = float(np.dot(rule.weights, x**degree))
            assert integral == pytest.approx(1.0 / (degree + 1), rel=1e-12)

    def test_degree_metadata(self):
        assert gauss_legendre_1d(3).degree == 5

    def test_rejects_zero_points(self):
        with pytest.raises(ElementError):
            gauss_legendre_1d(0)

    def test_two_point_rule_not_exact_beyond_degree(self):
        rule = gauss_legendre_1d(2)
        x = rule.points[:, 0]
        integral = float(np.dot(rule.weights, x**4))
        assert integral != pytest.approx(1.0 / 5.0, rel=1e-12)


class TestHexQuadrature:
    def test_weights_sum_to_unit_volume(self):
        for n in (1, 2, 3, 4):
            rule = hex_quadrature(n)
            assert rule.weights.sum() == pytest.approx(1.0)
            assert rule.num_points == n**3
            assert rule.points.shape[1] == 3

    def test_separable_monomial_exactness(self):
        rule = hex_quadrature(3)
        x, y, z = rule.points[:, 0], rule.points[:, 1], rule.points[:, 2]
        # x^4 y^2 z^3 integrates to 1/5 * 1/3 * 1/4 on the unit cube.
        integral = float(np.dot(rule.weights, x**4 * y**2 * z**3))
        assert integral == pytest.approx(1.0 / 5.0 / 3.0 / 4.0, rel=1e-12)

    def test_x_varies_fastest(self):
        rule = hex_quadrature(2)
        # First two points should differ in x only.
        assert rule.points[0, 0] != rule.points[1, 0]
        assert rule.points[0, 1] == pytest.approx(rule.points[1, 1])
        assert rule.points[0, 2] == pytest.approx(rule.points[1, 2])

    @given(order=st.integers(min_value=1, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_default_rule_integrates_gradients_exactly(self, order):
        """The default rule handles degree 2*order per direction."""
        rule = default_rule_for_order(order)
        x = rule.points[:, 0]
        degree = 2 * order
        integral = float(np.dot(rule.weights, x**degree))
        assert integral == pytest.approx(1.0 / (degree + 1), rel=1e-12)

    def test_default_rule_rejects_bad_order(self):
        with pytest.raises(ElementError):
            default_rule_for_order(0)


class TestQuadratureRuleValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ElementError):
            QuadratureRule(points=np.zeros((3, 3)), weights=np.ones(2))

    def test_1d_points_promoted_to_column(self):
        rule = QuadratureRule(points=np.array([0.5]), weights=np.array([1.0]))
        assert rule.points.shape == (1, 1)
