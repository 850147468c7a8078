"""Recursive coordinate bisection (RCB).

A geometric partitioner: repeatedly split the current cell set through
the median of its longest bounding-box axis, sending equal halves to
the two sides.  Handles non-power-of-two part counts by splitting
proportionally (a 5-part problem splits 3:2 first).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.fem.mesh import StructuredBoxMesh


def partition_rcb(
    mesh: StructuredBoxMesh,
    num_parts: int,
) -> np.ndarray:
    """Partition cells into ``num_parts`` by recursive coordinate bisection.

    Every cell weighs the same: the paper measures load as the number of
    mesh elements per process.
    """
    if num_parts < 1:
        raise PartitionError(f"num_parts must be >= 1, got {num_parts}")
    if num_parts > mesh.num_cells:
        raise PartitionError(
            f"cannot split {mesh.num_cells} cells into {num_parts} parts"
        )
    centers = mesh.cell_centers
    assignment = np.zeros(mesh.num_cells, dtype=np.int64)
    _bisect(centers, np.arange(mesh.num_cells), 0, num_parts, assignment)
    return assignment


def _bisect(
    centers: np.ndarray,
    cells: np.ndarray,
    first_part: int,
    num_parts: int,
    assignment: np.ndarray,
) -> None:
    """Recursively assign ``cells`` to parts ``[first_part, first_part+num_parts)``."""
    if num_parts == 1:
        assignment[cells] = first_part
        return
    left_parts = num_parts // 2
    right_parts = num_parts - left_parts
    target_fraction = left_parts / num_parts

    pts = centers[cells]
    spans = pts.max(axis=0) - pts.min(axis=0)
    axis = int(np.argmax(spans))
    order = np.argsort(pts[:, axis], kind="stable")
    sorted_cells = cells[order]
    # The running unit-weight load: 1.0, 2.0, ... (exact in float64).
    cum = np.arange(1.0, len(cells) + 1.0)
    total = cum[-1]
    # First index where the left side reaches its weight target.
    split = int(np.searchsorted(cum, target_fraction * total))
    # Keep both sides non-empty and able to host their part counts.
    split = max(left_parts, min(split + 1, len(cells) - right_parts))

    _bisect(centers, sorted_cells[:split], first_part, left_parts, assignment)
    _bisect(
        centers, sorted_cells[split:], first_part + left_parts, right_parts,
        assignment,
    )
