"""Degree-of-freedom numbering for Lagrange spaces on structured meshes.

For a Q``p`` space on an ``(nx, ny, nz)`` structured mesh the global DOFs
sit on a ``(p*nx + 1, p*ny + 1, p*nz + 1)`` lattice; the DOFs of cell
``(i, j, k)`` are the lattice points ``(p*i + a, p*j + b, p*k + c)`` for
``a, b, c in 0..p``, in the element's tensor order.  This gives a
matching between local and global numbering with no lookup tables — the
same trick LifeV uses for structured runs.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import ElementError
from repro.fem.elements import LagrangeHexElement
from repro.fem.mesh import StructuredBoxMesh


class DofMap:
    """DOF numbering for a scalar Q``order`` space on a structured mesh."""

    def __init__(self, mesh: StructuredBoxMesh, order: int = 1):
        if order < 1:
            raise ElementError(f"order must be >= 1, got {order}")
        self.mesh = mesh
        self.order = int(order)
        self.element = LagrangeHexElement(order)
        nx, ny, nz = mesh.shape
        p = self.order
        self.lattice_shape = (p * nx + 1, p * ny + 1, p * nz + 1)

    @property
    def num_dofs(self) -> int:
        """Total number of global DOFs."""
        mx, my, mz = self.lattice_shape
        return mx * my * mz

    def __repr__(self) -> str:
        return f"DofMap(Q{self.order}, {self.num_dofs} dofs on {self.mesh!r})"

    def materialize(self) -> "DofMap":
        """Compute every lazy index and coordinate array now; returns self.

        ``cached_property`` fills an instance on first read, unlocked, so
        a map that threads are about to share must be complete first.
        """
        for name in ("scatter_indices", "dof_coords", "boundary_dofs", "interior_dofs"):
            getattr(self, name)
        return self

    # -- numbering ----------------------------------------------------------

    @cached_property
    def cell_dofs(self) -> np.ndarray:
        """Global DOFs per cell, shape ``(num_cells, (order+1)^3)``.

        Column order matches :class:`LagrangeHexElement` tensor ordering,
        so assembled local matrices scatter directly.
        """
        mesh = self.mesh
        p = self.order
        mx, my, _mz = self.lattice_shape
        ijk = mesh.cell_coords(np.arange(mesh.num_cells))
        sx, sy, sz = 1, mx, mx * my
        base = p * (ijk[:, 0] * sx + ijk[:, 1] * sy + ijk[:, 2] * sz)
        offsets = np.array(
            [
                a * sx + b * sy + c * sz
                for c in range(p + 1)
                for b in range(p + 1)
                for a in range(p + 1)
            ],
            dtype=np.int64,
        )
        return base[:, None] + offsets[None, :]

    @cached_property
    def scatter_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Precomputed COO (rows, cols) for element-matrix scatter.

        The pattern depends only on the dofmap, so repeated assembly
        (the RD solver re-assembles every time step) reuses it instead
        of re-deriving ~nb^2 x num_cells indices each call.
        """
        cd = self.cell_dofs
        nb = cd.shape[1]
        rows = np.repeat(cd, nb, axis=1).ravel()
        cols = np.tile(cd, (1, nb)).ravel()
        return rows, cols

    @cached_property
    def dof_coords(self) -> np.ndarray:
        """Physical coordinates of every DOF, shape ``(num_dofs, 3)``.

        Works for graded meshes too: within each (possibly non-uniform)
        cell the sub-nodes follow the reference element under the
        per-cell affine map.
        """
        x, y, z = self.mesh.dof_axis_coords(self.order)
        zz, yy, xx = np.meshgrid(z, y, x, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])

    # -- boundary -------------------------------------------------------------

    @cached_property
    def boundary_dof_mask(self) -> np.ndarray:
        """Boolean mask over DOFs lying on the domain boundary."""
        mx, my, mz = self.lattice_shape
        k, j, i = np.meshgrid(
            np.arange(mz), np.arange(my), np.arange(mx), indexing="ij"
        )
        mask = (
            (i == 0)
            | (i == mx - 1)
            | (j == 0)
            | (j == my - 1)
            | (k == 0)
            | (k == mz - 1)
        )
        return mask.ravel()

    @cached_property
    def boundary_dofs(self) -> np.ndarray:
        """Indices of the boundary DOFs."""
        return np.nonzero(self.boundary_dof_mask)[0]

    @cached_property
    def interior_dofs(self) -> np.ndarray:
        """Indices of the interior (non-boundary) DOFs."""
        return np.nonzero(~self.boundary_dof_mask)[0]
