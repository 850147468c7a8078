"""Structured hexahedral box meshes.

The paper's test problems live on a cube discretized as an ``n^3``
structured mesh (e.g. 20^3 elements per MPI process in the weak-scaling
runs).  A structured mesh keeps geometry trivial — every cell is an
axis-aligned box — which is exactly what makes fully vectorized assembly
possible, while still exposing the connectivity (the dual graph) that
the partitioners need.

Index conventions (used consistently across fem/, partition/ and apps/):

* cells live on an ``(nx, ny, nz)`` lattice, linearized with the x index
  varying fastest: ``c = i + nx * (j + ny * k)``;
* DOFs live on a lattice linearized the same way (for Q1 it is the
  ``(nx+1, ny+1, nz+1)`` vertex lattice), and the local DOF order within
  a cell is the tensor order ``(di, dj, dk)`` for ``dk`` outer, ``dj``
  middle, ``di`` inner (see :class:`~repro.fem.dofmap.DofMap`).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import MeshError


class StructuredBoxMesh:
    """Axis-aligned structured mesh of hexahedral cells over a box.

    Parameters
    ----------
    shape:
        Number of cells per direction ``(nx, ny, nz)``.
    lower, upper:
        Opposite corners of the box; defaults to the unit cube, the
        domain of both test cases in the paper.
    """

    def __init__(
        self,
        shape: tuple[int, int, int],
        lower: tuple[float, float, float] = (0.0, 0.0, 0.0),
        upper: tuple[float, float, float] = (1.0, 1.0, 1.0),
        axis_coords: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ):
        nx, ny, nz = (int(s) for s in shape)
        if nx < 1 or ny < 1 or nz < 1:
            raise MeshError(f"mesh shape must be positive in every direction, got {shape}")
        if axis_coords is not None:
            coords = tuple(np.asarray(c, dtype=float) for c in axis_coords)
            if len(coords) != 3:
                raise MeshError("axis_coords needs one array per direction")
            for axis, (c, n) in enumerate(zip(coords, (nx, ny, nz))):
                if c.shape != (n + 1,):
                    raise MeshError(
                        f"axis {axis}: expected {n + 1} coordinates, got {c.shape}"
                    )
                if not np.all(np.diff(c) > 0):
                    raise MeshError(f"axis {axis}: coordinates must strictly increase")
            lo = np.array([c[0] for c in coords])
            hi = np.array([c[-1] for c in coords])
        else:
            lo = np.asarray(lower, dtype=float)
            hi = np.asarray(upper, dtype=float)
            if lo.shape != (3,) or hi.shape != (3,):
                raise MeshError("lower/upper must be 3-vectors")
            if not np.all(hi > lo):
                raise MeshError(
                    f"upper corner must exceed lower corner, got {lower} .. {upper}"
                )
            coords = tuple(
                np.linspace(lo[d], hi[d], n + 1)
                for d, n in enumerate((nx, ny, nz))
            )
        self.shape = (nx, ny, nz)
        self.lower = lo
        self.upper = hi
        self.axis_coords = coords
        steps = [np.diff(c) for c in coords]
        self.is_uniform = all(
            np.allclose(h, h[0], rtol=1e-12, atol=1e-14) for h in steps
        )
        self._axis_steps = steps

    # -- sizes ------------------------------------------------------------

    @property
    def num_cells(self) -> int:
        """Total number of hexahedral cells."""
        nx, ny, nz = self.shape
        return nx * ny * nz

    @cached_property
    def cell_spacings(self) -> np.ndarray:
        """Per-cell ``(hx, hy, hz)``, shape ``(num_cells, 3)``."""
        ijk = self.cell_coords(np.arange(self.num_cells))
        return np.column_stack(
            [self._axis_steps[d][ijk[:, d]] for d in range(3)]
        )

    @cached_property
    def cell_volumes(self) -> np.ndarray:
        """Per-cell volume, shape ``(num_cells,)``."""
        return np.prod(self.cell_spacings, axis=1)

    def dof_axis_coords(self, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-axis DOF lattice coordinates for a Q``order`` space.

        Within each cell the 1-D nodes are equispaced in *physical*
        coordinates (matching the reference-element node layout under
        the per-cell affine map).
        """
        if order < 1:
            raise MeshError(f"order must be >= 1, got {order}")
        out = []
        for c in self.axis_coords:
            left = c[:-1]
            width = np.diff(c)
            # order sub-nodes per cell, then the final endpoint.
            offsets = np.arange(order) / order
            interior = (left[:, None] + width[:, None] * offsets[None, :]).ravel()
            out.append(np.concatenate([interior, c[-1:]]))
        return tuple(out)

    def __repr__(self) -> str:
        nx, ny, nz = self.shape
        kind = "" if self.is_uniform else ", graded"
        return f"StructuredBoxMesh({nx}x{ny}x{nz}, {self.num_cells} cells{kind})"

    # -- index helpers ----------------------------------------------------

    def cell_coords(self, cells: np.ndarray | int) -> np.ndarray:
        """Lattice coordinates ``(i, j, k)`` of linear cell indices."""
        nx, ny, _nz = self.shape
        c = np.asarray(cells)
        i = c % nx
        j = (c // nx) % ny
        k = c // (nx * ny)
        return np.stack(np.broadcast_arrays(i, j, k), axis=-1)

    # -- geometry ---------------------------------------------------------

    @cached_property
    def cell_centers(self) -> np.ndarray:
        """Centroid of every cell, shape ``(num_cells, 3)``."""
        return self.cell_origin(np.arange(self.num_cells)) + 0.5 * self.cell_spacings

    def cell_origin(self, cells: np.ndarray) -> np.ndarray:
        """Lower corner of the given cells, shape ``(len(cells), 3)``."""
        ijk = self.cell_coords(np.atleast_1d(np.asarray(cells)))
        return np.column_stack(
            [self.axis_coords[d][ijk[:, d]] for d in range(3)]
        )

    # -- connectivity -----------------------------------------------------

    @cached_property
    def dual_edges(self) -> np.ndarray:
        """All face-adjacency edges of the dual graph, shape ``(n_edges, 2)``.

        Each undirected edge appears once with ``edge[0] < edge[1]``.  This
        is the graph the ParMETIS work-alike partitioner operates on.
        """
        nx, ny, nz = self.shape
        cells = np.arange(self.num_cells).reshape(nz, ny, nx)  # [k, j, i]
        pairs = []
        if nx > 1:
            a = cells[:, :, :-1].ravel()
            b = cells[:, :, 1:].ravel()
            pairs.append(np.column_stack([a, b]))
        if ny > 1:
            a = cells[:, :-1, :].ravel()
            b = cells[:, 1:, :].ravel()
            pairs.append(np.column_stack([a, b]))
        if nz > 1:
            a = cells[:-1, :, :].ravel()
            b = cells[1:, :, :].ravel()
            pairs.append(np.column_stack([a, b]))
        if not pairs:
            return np.empty((0, 2), dtype=np.int64)
        edges = np.concatenate(pairs, axis=0)
        return np.sort(edges, axis=1)

    # -- submesh extraction (for distributed runs) -------------------------

    def extract_block(
        self, i_range: tuple[int, int], j_range: tuple[int, int], k_range: tuple[int, int]
    ) -> "StructuredBoxMesh":
        """Return the sub-box of cells ``[i0, i1) x [j0, j1) x [k0, k1)``.

        Used by the block partitioner to hand each simulated MPI rank its
        own local mesh, mirroring the mesh-partitioning step (i) of the
        paper's solver pipeline.
        """
        (i0, i1), (j0, j1), (k0, k1) = i_range, j_range, k_range
        nx, ny, nz = self.shape
        if not (0 <= i0 < i1 <= nx and 0 <= j0 < j1 <= ny and 0 <= k0 < k1 <= nz):
            raise MeshError(
                f"block ({i_range},{j_range},{k_range}) outside mesh of shape {self.shape}"
            )
        sub_coords = (
            self.axis_coords[0][i0 : i1 + 1],
            self.axis_coords[1][j0 : j1 + 1],
            self.axis_coords[2][k0 : k1 + 1],
        )
        return StructuredBoxMesh(
            (i1 - i0, j1 - j0, k1 - k0), axis_coords=sub_coords
        )
