"""Partition quality metrics.

Edge cut and load imbalance are what the malleable repartition reports
for each new partition: each cut dual edge means one cell-face worth of
DOF data exchanged per halo update.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.fem.mesh import StructuredBoxMesh


def _validate(mesh: StructuredBoxMesh, assignment: np.ndarray) -> np.ndarray:
    assignment = np.asarray(assignment)
    if assignment.shape != (mesh.num_cells,):
        raise PartitionError(
            f"assignment shape {assignment.shape} != ({mesh.num_cells},)"
        )
    if assignment.min() < 0:
        raise PartitionError("assignment contains unassigned (-1) cells")
    return assignment


def edge_cut(mesh: StructuredBoxMesh, assignment: np.ndarray) -> int:
    """Number of dual-graph edges crossing part boundaries."""
    assignment = _validate(mesh, assignment)
    edges = mesh.dual_edges
    if edges.size == 0:
        return 0
    return int(np.count_nonzero(assignment[edges[:, 0]] != assignment[edges[:, 1]]))


def load_imbalance(
    mesh: StructuredBoxMesh, assignment: np.ndarray, num_parts: int | None = None
) -> float:
    """Max part load over mean part load (1.0 = perfect balance).

    Load is the element count per part — the balance measure the paper
    states ParMETIS guarantees.
    """
    assignment = _validate(mesh, assignment)
    if num_parts is None:
        num_parts = int(assignment.max()) + 1
    sizes = np.bincount(assignment, minlength=num_parts)
    mean = mesh.num_cells / num_parts
    return float(sizes.max() / mean)
