"""Mesh partitioning: the ParMETIS work-alike.

Step (i) of the paper's solver pipeline splits the global mesh so each
MPI process owns a subset of elements, load-balanced by element count.
Three partitioners of increasing sophistication are provided:

* :func:`~repro.partition.grid.partition_block` — structured
  process-grid blocks (the paper's weak-scaling layout: ``q^3`` ranks,
  each a cube; the distributed steps here own slabs instead,
  :func:`repro.apps.stepping.slab_ownership`);
* :func:`~repro.partition.rcb.partition_rcb` — recursive coordinate
  bisection;
* :func:`~repro.partition.graph.partition_graph` — greedy graph growing
  with Kernighan–Lin boundary refinement on the dual graph (the METIS
  family's approach).

:mod:`repro.partition.quality` computes the two metrics a repartition
reports: edge cut and load imbalance.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.partition.rcb": ("partition_rcb",),
    "repro.partition.graph": ("partition_graph",),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
