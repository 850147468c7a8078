"""Finite element substrate: the LifeV work-alike.

Real, executable numerics: structured hexahedral meshes, tensor-product
Lagrange elements (Q1/Q2), vectorized assembly of the standard bilinear
forms, BDF time stepping and Dirichlet boundary conditions.  This package
plays the role the C++ stack (LifeV + Trilinos data structures) played in
the paper.
"""

from repro.fem.mesh import StructuredBoxMesh
from repro.fem.quadrature import QuadratureRule, gauss_legendre_1d, hex_quadrature
from repro.fem.elements import LagrangeHexElement
from repro.fem.dofmap import DofMap
from repro.fem.assembly import (
    assemble_mass,
    assemble_stiffness,
    assemble_advection,
    assemble_load,
)
from repro.fem.function import FEFunction, l2_error, h1_seminorm_error
from repro.fem.bdf import BDF
from repro.fem.boundary import apply_dirichlet

__all__ = [
    "StructuredBoxMesh",
    "QuadratureRule",
    "gauss_legendre_1d",
    "hex_quadrature",
    "LagrangeHexElement",
    "DofMap",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_advection",
    "assemble_load",
    "FEFunction",
    "l2_error",
    "h1_seminorm_error",
    "BDF",
    "apply_dirichlet",
]
