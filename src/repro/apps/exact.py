"""Exact solutions of the two test problems.

Both papers' problems prescribe their exact solution on the boundary and
use it "for checking the mathematical correctness of the code
execution"; these classes provide evaluation of the solution and the
data the solvers need (boundary values, initial states, forcing terms).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError


class RDManufacturedSolution:
    """The reaction-diffusion manufactured solution (§IV.A, eq. 1).

    ``u(x, t) = t^2 (x1^2 + x2^2 + x3^2)`` solves

        du/dt - (1/t^2) lap(u) - (2/t) u = -6

    since ``du/dt = 2t |x|^2``, ``lap(u) = 6 t^2`` and
    ``(2/t) u = 2t |x|^2``.  Figure 1 plots it at t = 2 s.
    """

    SOURCE_VALUE = -6.0

    def __call__(self, points: np.ndarray, t: float) -> np.ndarray:
        """u at ``points`` (n, 3) and time ``t``."""
        points = np.atleast_2d(points)
        return t**2 * np.sum(points**2, axis=1)

    def time_derivative(self, points: np.ndarray, t: float) -> np.ndarray:
        """du/dt at ``points``."""
        points = np.atleast_2d(points)
        return 2.0 * t * np.sum(points**2, axis=1)

    def residual(self, points: np.ndarray, t: float) -> np.ndarray:
        """PDE residual (should be zero): du/dt - lap/t^2 - 2u/t + 6."""
        if t <= 0:
            raise ReproError("the RD coefficients are singular at t <= 0")
        points = np.atleast_2d(points)
        lap = 6.0 * t**2
        return (
            self.time_derivative(points, t)
            - lap / t**2
            - (2.0 / t) * self(points, t)
            - self.SOURCE_VALUE
        )

    def isosurface_levels(self) -> np.ndarray:
        """The level set values of Figure 1: 25 values, 0.5 apart."""
        return np.arange(25) * 0.5


class EthierSteinmanSolution:
    """The Ethier–Steinman exact Navier–Stokes solution (§IV.B, [21]).

    A fully 3-D unsteady solution of the incompressible NSE with zero
    forcing::

        u1 = -a [e^{ax} sin(ay + dz) + e^{az} cos(ax + dy)] e^{-nu d^2 t}
        u2 = -a [e^{ay} sin(az + dx) + e^{ax} cos(ay + dz)] e^{-nu d^2 t}
        u3 = -a [e^{az} sin(ax + dy) + e^{ay} cos(az + dx)] e^{-nu d^2 t}

        p  = -(a^2 / 2) [ e^{2ax} + e^{2ay} + e^{2az}
              + 2 sin(ax+dy) cos(az+dx) e^{a(y+z)}
              + 2 sin(ay+dz) cos(ax+dy) e^{a(z+x)}
              + 2 sin(az+dx) cos(ay+dz) e^{a(x+y)} ] e^{-2 nu d^2 t}

    with the classical parameters a = pi/4, d = pi/2.  Figure 2 plots it
    at t = 0.003 s.
    """

    a = np.pi / 4
    d = np.pi / 2

    def __init__(self, nu: float = 1.0):
        if nu <= 0:
            raise ReproError(f"viscosity must be positive, got {nu}")
        self.nu = float(nu)

    def _decay(self, t: float) -> float:
        return float(np.exp(-self.nu * self.d**2 * t))

    def velocity(self, points: np.ndarray, t: float) -> np.ndarray:
        """Velocity vectors at ``points`` (n, 3); returns (n, 3)."""
        points = np.atleast_2d(points)
        a, d = self.a, self.d
        x, y, z = points[:, 0], points[:, 1], points[:, 2]
        g = self._decay(t)
        u1 = -a * (np.exp(a * x) * np.sin(a * y + d * z)
                   + np.exp(a * z) * np.cos(a * x + d * y)) * g
        u2 = -a * (np.exp(a * y) * np.sin(a * z + d * x)
                   + np.exp(a * x) * np.cos(a * y + d * z)) * g
        u3 = -a * (np.exp(a * z) * np.sin(a * x + d * y)
                   + np.exp(a * y) * np.cos(a * z + d * x)) * g
        return np.column_stack([u1, u2, u3])

    def pressure(self, points: np.ndarray, t: float) -> np.ndarray:
        """Pressure at ``points``; returns (n,)."""
        points = np.atleast_2d(points)
        a, d = self.a, self.d
        x, y, z = points[:, 0], points[:, 1], points[:, 2]
        g2 = self._decay(t) ** 2
        return (
            -(a**2) / 2.0
            * (
                np.exp(2 * a * x) + np.exp(2 * a * y) + np.exp(2 * a * z)
                + 2 * np.sin(a * x + d * y) * np.cos(a * z + d * x) * np.exp(a * (y + z))
                + 2 * np.sin(a * y + d * z) * np.cos(a * x + d * y) * np.exp(a * (z + x))
                + 2 * np.sin(a * z + d * x) * np.cos(a * y + d * z) * np.exp(a * (x + y))
            )
            * g2
        )

    def divergence(self, points: np.ndarray, t: float) -> np.ndarray:
        """Numerical divergence of the velocity (≈ 0 everywhere)."""
        h = 1e-6  # central-difference step
        points = np.atleast_2d(points)
        div = np.zeros(points.shape[0])
        for i in range(3):
            plus = points.copy()
            minus = points.copy()
            plus[:, i] += h
            minus[:, i] -= h
            div += (self.velocity(plus, t)[:, i] - self.velocity(minus, t)[:, i]) / (2 * h)
        return div

    def momentum_residual(self, points: np.ndarray, t: float) -> np.ndarray:
        """Numerical NSE momentum residual (≈ 0): u_t + (u.grad)u + grad p - nu lap u.

        Finite-difference verification that the implemented formulas do
        satisfy the equations — guards against transcription typos.
        """
        h = 1e-5  # central-difference step
        points = np.atleast_2d(points)
        n = points.shape[0]
        u = self.velocity(points, t)
        dudt = (self.velocity(points, t + h) - self.velocity(points, t - h)) / (2 * h)

        grad_u = np.zeros((n, 3, 3))  # grad_u[:, i, j] = du_i/dx_j
        lap_u = np.zeros((n, 3))
        grad_p = np.zeros((n, 3))
        for j in range(3):
            plus = points.copy()
            minus = points.copy()
            plus[:, j] += h
            minus[:, j] -= h
            up = self.velocity(plus, t)
            um = self.velocity(minus, t)
            grad_u[:, :, j] = (up - um) / (2 * h)
            lap_u += (up - 2 * u + um) / h**2
            grad_p[:, j] = (self.pressure(plus, t) - self.pressure(minus, t)) / (2 * h)

        convection = np.einsum("nj,nij->ni", u, grad_u)
        return dudt + convection + grad_p - self.nu * lap_u
