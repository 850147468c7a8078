"""Gauss–Legendre quadrature on the reference interval and hexahedron.

The reference cell throughout the library is the unit cube ``[0, 1]^3``
(structured meshes make every physical cell an axis-aligned scaling of
it, so one rule serves all cells).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ElementError


@dataclass(frozen=True)
class QuadratureRule:
    """A quadrature rule: ``points`` of shape (nq, dim), ``weights`` (nq,).

    Weights sum to the measure of the reference cell (1 for the unit
    interval/cube).
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int = field(default=0)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if wts.ndim != 1 or pts.shape[0] != wts.shape[0]:
            raise ElementError(
                f"inconsistent quadrature arrays: points {pts.shape}, weights {wts.shape}"
            )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def num_points(self) -> int:
        """Number of quadrature points."""
        return self.weights.shape[0]


def gauss_legendre_1d(num_points: int) -> QuadratureRule:
    """Gauss–Legendre rule on ``[0, 1]`` with ``num_points`` points.

    Exact for polynomials of degree ``2 * num_points - 1``.
    """
    if num_points < 1:
        raise ElementError(f"need at least one quadrature point, got {num_points}")
    # leggauss is on [-1, 1]; map affinely to [0, 1].
    x, w = np.polynomial.legendre.leggauss(num_points)
    points = 0.5 * (x + 1.0)
    weights = 0.5 * w
    return QuadratureRule(points=points, weights=weights, degree=2 * num_points - 1)


def hex_quadrature(num_points_1d: int) -> QuadratureRule:
    """Tensor-product Gauss rule on the unit cube.

    ``num_points_1d`` points per direction; point ordering has the x
    coordinate varying fastest, matching the element and dofmap tensor
    conventions used across :mod:`repro.fem`.
    """
    line = gauss_legendre_1d(num_points_1d)
    x = line.points[:, 0]
    w = line.weights
    # meshgrid with indexing="ij" then transpose ordering so x is fastest.
    zz, yy, xx = np.meshgrid(x, x, x, indexing="ij")
    points = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    wz, wy, wx = np.meshgrid(w, w, w, indexing="ij")
    weights = (wx * wy * wz).ravel()
    return QuadratureRule(points=points, weights=weights, degree=line.degree)


def default_rule_for_order(order: int) -> QuadratureRule:
    """A hex rule integrating stiffness terms of Q``order`` elements exactly.

    Gradient products of Q``order`` basis functions have per-direction
    degree up to ``2 * order``; ``order + 1`` Gauss points per direction
    integrate degree ``2 * order + 1`` exactly.
    """
    if order < 1:
        raise ElementError(f"element order must be >= 1, got {order}")
    return hex_quadrature(order + 1)
