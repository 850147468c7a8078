"""Finite element substrate: the LifeV work-alike.

Real, executable numerics: structured hexahedral meshes, tensor-product
Lagrange elements (Q1/Q2), vectorized assembly of the standard bilinear
forms, BDF time stepping and Dirichlet boundary conditions.  This package
plays the role the C++ stack (LifeV + Trilinos data structures) played in
the paper.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.fem.mesh": ("StructuredBoxMesh",),
    "repro.fem.dofmap": ("DofMap",),
    "repro.fem.assembly": ("assemble_mass", "assemble_stiffness"),
    "repro.fem.boundary": ("apply_dirichlet",),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
