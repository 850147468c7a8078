"""Structured block partitioning on process grids.

The weak-scaling experiments in the paper load ``p = q^3`` MPI processes
with ``20^3`` elements each, i.e. the global ``(20q)^3`` mesh is split
into a ``q x q x q`` process grid of equal cubes.  This module provides
that layout plus general (possibly uneven) block decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import PartitionError
from repro.fem.mesh import StructuredBoxMesh


def _split_extent(extent: int, parts: int) -> list[tuple[int, int]]:
    """Split ``extent`` cells into ``parts`` contiguous ranges, balanced."""
    if parts < 1 or parts > extent:
        raise PartitionError(f"cannot split {extent} cells into {parts} parts")
    bounds = np.linspace(0, extent, parts + 1).round().astype(int)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(parts)]


@dataclass(frozen=True)
class ProcessGrid:
    """A Cartesian arrangement of ranks: ``dims = (px, py, pz)``.

    Provides rank <-> grid-coordinate maps and neighbour queries, the
    information halo exchange needs.
    """

    dims: tuple[int, int, int]

    def __post_init__(self) -> None:
        px, py, pz = self.dims
        if px < 1 or py < 1 or pz < 1:
            raise PartitionError(f"process grid dims must be positive, got {self.dims}")

    @property
    def size(self) -> int:
        """Total number of ranks in the grid."""
        px, py, pz = self.dims
        return px * py * pz

    @classmethod
    def cubic(cls, num_ranks: int) -> "ProcessGrid":
        """The ``q^3`` grid for a perfect-cube rank count (paper layout)."""
        q = round(num_ranks ** (1.0 / 3.0))
        if q**3 != num_ranks:
            raise PartitionError(
                f"{num_ranks} is not a perfect cube; the paper's weak-scaling "
                f"series uses 1, 8, 27, ..., 1000"
            )
        return cls((q, q, q))

    @classmethod
    def for_ranks(cls, num_ranks: int) -> "ProcessGrid":
        """A near-cubic grid for an arbitrary rank count.

        Factorizes ``num_ranks`` into three factors as close to equal as
        possible (what MPI_Dims_create does).
        """
        if num_ranks < 1:
            raise PartitionError(f"need at least one rank, got {num_ranks}")
        best = (num_ranks, 1, 1)
        best_score = float("inf")
        for px in range(1, int(round(num_ranks ** (1 / 3))) + 2):
            if num_ranks % px:
                continue
            rest = num_ranks // px
            for py in range(px, int(np.sqrt(rest)) + 1):
                if rest % py:
                    continue
                pz = rest // py
                score = (pz - px) ** 2 + (pz - py) ** 2 + (py - px) ** 2
                if score < best_score:
                    best_score = score
                    best = (px, py, pz)
        px, py, pz = sorted(best)
        return cls((px, py, pz))

    def rank_coords(self, rank: int) -> tuple[int, int, int]:
        """Grid coordinates of a rank (x fastest, like cell numbering)."""
        px, py, pz = self.dims
        if not (0 <= rank < self.size):
            raise PartitionError(f"rank {rank} outside grid of size {self.size}")
        return (rank % px, (rank // px) % py, rank // (px * py))

    def coords_rank(self, i: int, j: int, k: int) -> int:
        """Rank owning grid coordinate ``(i, j, k)``."""
        px, py, pz = self.dims
        if not (0 <= i < px and 0 <= j < py and 0 <= k < pz):
            raise PartitionError(f"coords ({i},{j},{k}) outside grid {self.dims}")
        return i + px * (j + py * k)

    def neighbors(self, rank: int) -> dict[str, int]:
        """Face-adjacent neighbour ranks of ``rank``, keyed by face name."""
        px, py, pz = self.dims
        i, j, k = self.rank_coords(rank)
        out: dict[str, int] = {}
        if i > 0:
            out["x-"] = self.coords_rank(i - 1, j, k)
        if i < px - 1:
            out["x+"] = self.coords_rank(i + 1, j, k)
        if j > 0:
            out["y-"] = self.coords_rank(i, j - 1, k)
        if j < py - 1:
            out["y+"] = self.coords_rank(i, j + 1, k)
        if k > 0:
            out["z-"] = self.coords_rank(i, j, k - 1)
        if k < pz - 1:
            out["z+"] = self.coords_rank(i, j, k + 1)
        return out


def partition_block(
    mesh: StructuredBoxMesh, grid: ProcessGrid | int
) -> np.ndarray:
    """Assign each cell to a rank by structured blocks.

    ``grid`` is a :class:`ProcessGrid` or a rank count (near-cubic grid
    chosen automatically).  Returns an int array of length
    ``mesh.num_cells`` with values in ``[0, grid.size)``.
    """
    if isinstance(grid, int):
        grid = ProcessGrid.for_ranks(grid)
    nx, ny, nz = mesh.shape
    px, py, pz = grid.dims
    if px > nx or py > ny or pz > nz:
        raise PartitionError(
            f"process grid {grid.dims} exceeds mesh shape {mesh.shape}"
        )
    x_ranges = _split_extent(nx, px)
    y_ranges = _split_extent(ny, py)
    z_ranges = _split_extent(nz, pz)

    owner_x = np.empty(nx, dtype=np.int64)
    for p, (lo, hi) in enumerate(x_ranges):
        owner_x[lo:hi] = p
    owner_y = np.empty(ny, dtype=np.int64)
    for p, (lo, hi) in enumerate(y_ranges):
        owner_y[lo:hi] = p
    owner_z = np.empty(nz, dtype=np.int64)
    for p, (lo, hi) in enumerate(z_ranges):
        owner_z[lo:hi] = p

    ijk = mesh.cell_coords(np.arange(mesh.num_cells))
    return (
        owner_x[ijk[:, 0]]
        + px * (owner_y[ijk[:, 1]] + py * owner_z[ijk[:, 2]])
    )


def block_ranges(
    mesh: StructuredBoxMesh, grid: ProcessGrid
) -> list[tuple[tuple[int, int], tuple[int, int], tuple[int, int]]]:
    """Cell-index ranges ``((i0,i1),(j0,j1),(k0,k1))`` per rank.

    Companion to :func:`partition_block`; feeds
    :meth:`StructuredBoxMesh.extract_block` so a rank can build its local
    mesh.
    """
    nx, ny, nz = mesh.shape
    px, py, pz = grid.dims
    if px > nx or py > ny or pz > nz:
        raise PartitionError(
            f"process grid {grid.dims} exceeds mesh shape {mesh.shape}"
        )
    xr = _split_extent(nx, px)
    yr = _split_extent(ny, py)
    zr = _split_extent(nz, pz)
    out = []
    for rank in range(grid.size):
        i, j, k = grid.rank_coords(rank)
        out.append((xr[i], yr[j], zr[k]))
    return out
