"""Mesh partitioning: the ParMETIS work-alike.

Step (i) of the paper's solver pipeline splits the global mesh so each
MPI process owns a subset of elements, load-balanced by element count.
Three partitioners of increasing sophistication are provided:

* :func:`partition_block` — structured process-grid blocks (the paper's
  weak-scaling layout: ``q^3`` ranks, each a cube; the distributed steps
  here own slabs instead, :func:`repro.apps.stepping.slab_ownership`);
* :func:`partition_rcb` — recursive coordinate bisection;
* :func:`partition_graph` — greedy graph growing with Kernighan–Lin
  boundary refinement on the dual graph (the METIS family's approach).

:mod:`repro.partition.quality` computes the two metrics a repartition
reports: edge cut and load imbalance.
"""

from repro.partition.grid import ProcessGrid, partition_block
from repro.partition.rcb import partition_rcb
from repro.partition.graph import partition_graph
from repro.partition.quality import edge_cut, load_imbalance

__all__ = [
    "ProcessGrid",
    "partition_block",
    "partition_rcb",
    "partition_graph",
    "edge_cut",
    "load_imbalance",
]
