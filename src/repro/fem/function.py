"""Finite element functions, interpolation and error norms.

Error norms are computed by quadrature over the whole mesh in one
vectorized pass; they back the correctness checks the paper relies on
("exact solution is used for checking the mathematical correctness of
the code execution").
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import AssemblyError
from repro.fem.assembly import (
    evaluate_at_quad,
    evaluate_gradient_at_quad,
    quad_points_physical,
)
from repro.fem.dofmap import DofMap
from repro.fem.quadrature import QuadratureRule, hex_quadrature


class FEFunction:
    """A scalar finite element function: a dofmap plus coefficient values."""

    def __init__(self, dofmap: DofMap, values: np.ndarray | None = None):
        self.dofmap = dofmap
        if values is None:
            values = np.zeros(dofmap.num_dofs)
        values = np.asarray(values, dtype=float)
        if values.shape != (dofmap.num_dofs,):
            raise AssemblyError(
                f"values shape {values.shape} != ({dofmap.num_dofs},)"
            )
        self.values = values

    @classmethod
    def interpolate(
        cls, dofmap: DofMap, func: Callable[[np.ndarray], np.ndarray]
    ) -> "FEFunction":
        """Nodal interpolation of ``func`` (points ``(n,3) -> (n,)``)."""
        vals = np.asarray(func(dofmap.dof_coords), dtype=float)
        return cls(dofmap, vals)

    def copy(self) -> "FEFunction":
        """Deep copy of the coefficient vector (dofmap shared)."""
        return FEFunction(self.dofmap, self.values.copy())

    def __add__(self, other: "FEFunction") -> "FEFunction":
        return FEFunction(self.dofmap, self.values + other.values)

    def __sub__(self, other: "FEFunction") -> "FEFunction":
        return FEFunction(self.dofmap, self.values - other.values)

    def __mul__(self, scalar: float) -> "FEFunction":
        return FEFunction(self.dofmap, self.values * float(scalar))

    __rmul__ = __mul__

    def l2_norm(self) -> float:
        """The L2 norm of the function."""
        return l2_error(self.dofmap, self.values, lambda pts: np.zeros(pts.shape[0]))


def _error_rule(dofmap: DofMap) -> QuadratureRule:
    # One extra point per direction over the mass-exact rule, so errors of
    # non-polynomial exact solutions are integrated accurately.
    return hex_quadrature(dofmap.order + 2)


def l2_error(
    dofmap: DofMap,
    values: np.ndarray,
    exact: Callable[[np.ndarray], np.ndarray],
) -> float:
    """``||u_h - u_exact||_{L2}`` over the mesh."""
    rule = _error_rule(dofmap)
    uh = evaluate_at_quad(dofmap, values, rule)  # (nc, nq)
    pts = quad_points_physical(dofmap, rule)
    ue = np.asarray(exact(pts.reshape(-1, 3)), dtype=float).reshape(uh.shape)
    volumes = dofmap.mesh.cell_volumes
    err2 = np.einsum("q,e,eq->", rule.weights, volumes, (uh - ue) ** 2)
    return float(np.sqrt(max(err2, 0.0)))


def h1_seminorm_error(
    dofmap: DofMap,
    values: np.ndarray,
    exact_grad: Callable[[np.ndarray], np.ndarray],
) -> float:
    """``|u_h - u_exact|_{H1}`` — the L2 norm of the gradient error.

    ``exact_grad`` maps points ``(n, 3) -> (n, 3)``.
    """
    rule = _error_rule(dofmap)
    gh = evaluate_gradient_at_quad(dofmap, values, rule)  # (nc, nq, 3)
    pts = quad_points_physical(dofmap, rule)
    ge = np.asarray(exact_grad(pts.reshape(-1, 3)), dtype=float).reshape(gh.shape)
    volumes = dofmap.mesh.cell_volumes
    err2 = np.einsum("q,e,eqd->", rule.weights, volumes, (gh - ge) ** 2)
    return float(np.sqrt(max(err2, 0.0)))


def vector_l2_error(
    dofmap: DofMap,
    components: list[np.ndarray],
    exact: Callable[[np.ndarray], np.ndarray],
) -> float:
    """L2 error of a vector field stored as per-component DOF vectors.

    ``exact`` maps points ``(n, 3) -> (n, len(components))``.
    """
    rule = _error_rule(dofmap)
    pts = quad_points_physical(dofmap, rule)
    flat = pts.reshape(-1, 3)
    ue = np.asarray(exact(flat), dtype=float)
    if ue.shape != (flat.shape[0], len(components)):
        raise AssemblyError(
            f"exact returned shape {ue.shape}, expected {(flat.shape[0], len(components))}"
        )
    volumes = dofmap.mesh.cell_volumes
    err2 = 0.0
    for m, comp in enumerate(components):
        uh = evaluate_at_quad(dofmap, comp, rule)
        uem = ue[:, m].reshape(uh.shape)
        err2 += np.einsum("q,e,eq->", rule.weights, volumes, (uh - uem) ** 2)
    return float(np.sqrt(max(err2, 0.0)))
