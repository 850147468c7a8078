"""Analytic per-phase workload models for the two applications.

The weak-scaling harness needs per-iteration flop counts and
communication volumes at rank counts (up to 1000) where executing the
real numerics is pointless; these closed forms are derived from the
algorithms' operation counts and cross-validated against executed runs
by the test suite and :mod:`repro.perfmodel.calibration`.

Conventions: every rank owns ``ELEMENTS_PER_RANK`` hex elements (the
paper's 20^3), ranks form a cubic process grid, and the halo with each
face neighbour is one element-face layer of DOFs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ExperimentError, ReproError

BYTES_PER_DOF = 8  # double precision

#: Hex elements each rank owns in the paper's weak-scaling runs.
ELEMENTS_PER_RANK = 20**3


@dataclass(frozen=True)
class AppWorkload:
    """Operation-count model of one application's per-iteration work.

    Parameters are per *element* or per *dof* constants; methods scale
    them by the local problem size and rank-count-dependent iteration
    counts.

    ``fields`` — number of scalar fields communicated in halos (1 for
    RD, 4 for NS: three velocity components and pressure).
    ``order`` — element order (sets DOFs per element and face).
    ``assembly_flops_per_element`` — local matrix + scatter work.
    ``precond_flops_per_dof`` — preconditioner setup per owned DOF.
    ``solve_flops_per_dof_iter`` — matvec + axpy + dot work per owned
    DOF per Krylov iteration, summed over all solves in one time step.
    ``base_solver_iters`` — Krylov iterations per time step at 1 rank
    (all solves of the step combined).
    ``iter_growth`` — fractional iteration growth per unit of
    ``p^(1/3) - 1`` (block-Jacobi preconditioned CG degrades with the
    subdomain count; calibrated from executed distributed runs).
    ``allreduces_per_iteration`` — blocking reduction rounds per Krylov
    iteration: 3 for the classic solvers (two dots plus the norm), 1
    for the fused Chronopoulos–Gear CG (see :meth:`with_fused_solver`).
    ``allreduce_bytes`` — payload of one reduction message: one double
    for the classic solvers, the batched 3-double vector for the fused
    variant.  The adaptive collective layer selects its algorithm by
    this size (:mod:`repro.simmpi.selector`), so the analytic model
    needs it to mirror the simulator's choice.
    """

    name: str
    fields: int
    order: int
    assembly_flops_per_element: float
    precond_flops_per_dof: float
    solve_flops_per_dof_iter: float
    base_solver_iters: float
    iter_growth: float
    allreduces_per_iteration: float = 3.0
    allreduce_bytes: float = 8.0

    def __post_init__(self) -> None:
        if self.fields < 1 or self.order < 1:
            raise ReproError(f"invalid workload {self.name}")

    # -- sizes ------------------------------------------------------------

    def dofs_per_rank(self, elements_per_rank: int) -> float:
        """Owned DOFs for a cubic local mesh of ``elements_per_rank``."""
        n = round(elements_per_rank ** (1.0 / 3.0))
        if n**3 != elements_per_rank:
            raise ReproError(
                f"elements_per_rank must be a cube, got {elements_per_rank}"
            )
        return float((self.order * n + 1) ** 3) * self.fields

    def face_dofs(self, elements_per_rank: int) -> float:
        """DOFs on one face of the local block (one halo plane)."""
        n = round(elements_per_rank ** (1.0 / 3.0))
        return float((self.order * n + 1) ** 2) * self.fields

    def memory_per_rank_bytes(self, elements_per_rank: int) -> float:
        """Estimated resident memory of one rank's solver state.

        CSR operator storage (nnz * 12 B: value + index + amortized
        pointer), a preconditioner copy of the same size, ~10 work
        vectors, and a 2x allocator/assembly-scratch factor.  This makes
        Table I's "RAM/core" row operative: the paper contrasts the
        2006-era nodes' 1 GB/core with cc2.8xlarge's 3.8 GB/core (§VIII).
        """
        dofs = self.dofs_per_rank(elements_per_rank)
        nnz_per_row = (2 * self.order + 1) ** 3
        matrix_bytes = dofs * nnz_per_row * 12.0
        vector_bytes = 10.0 * dofs * BYTES_PER_DOF
        return 2.0 * (2.0 * matrix_bytes + vector_bytes)

    # -- iteration counts ----------------------------------------------------

    def solver_iterations(self, num_ranks: int) -> float:
        """Krylov iterations per time step at ``num_ranks``.

        One-level domain decomposition degrades slowly with subdomain
        count; the cube-root law matches the per-dimension subdomain
        growth of the paper's process grids.
        """
        if num_ranks < 1:
            raise ReproError(f"num_ranks must be >= 1, got {num_ranks}")
        q = num_ranks ** (1.0 / 3.0)
        return self.base_solver_iters * (1.0 + self.iter_growth * (q - 1.0))

    # -- per-phase flops ------------------------------------------------------

    def assembly_flops(self, elements_per_rank: int) -> float:
        """Assembly-phase flops per rank per iteration."""
        return self.assembly_flops_per_element * elements_per_rank

    def precond_flops(self, elements_per_rank: int) -> float:
        """Preconditioner-setup flops per rank per iteration."""
        return self.precond_flops_per_dof * self.dofs_per_rank(elements_per_rank)

    def solve_flops(self, elements_per_rank: int, num_ranks: int) -> float:
        """Solve-phase flops per rank per iteration."""
        return (
            self.solve_flops_per_dof_iter
            * self.dofs_per_rank(elements_per_rank)
            * self.solver_iterations(num_ranks)
        )

    # -- per-phase communication ------------------------------------------------

    def halo_neighbors(self, num_ranks: int) -> int:
        """Face neighbours per rank on the cubic process grid (<= 6)."""
        if num_ranks < 1:
            raise ReproError(f"num_ranks must be >= 1, got {num_ranks}")
        q = round(num_ranks ** (1.0 / 3.0))
        if q < 1:
            return 0
        per_dim = 2 if q > 2 else (1 if q > 1 else 0)
        return 3 * per_dim

    def allreduce_count(self, num_ranks: int) -> float:
        """Latency-bound allreduces per time step (CG dots and norms)."""
        return self.allreduces_per_iteration * self.solver_iterations(num_ranks)

    def with_fused_solver(self) -> "AppWorkload":
        """This workload solved by the fused-allreduce CG variant.

        The Chronopoulos–Gear recurrence batches the per-iteration
        reductions into a single allreduce round, so the latency term of
        the solve phase drops 3x while flops stay (essentially) put.
        Each message carries the batched 3-double vector instead of one
        scalar — still deep inside the selector's small-message regime.
        """
        return replace(self, allreduces_per_iteration=1.0, allreduce_bytes=24.0)


# Constants derived from the implemented algorithms:
#
# RD (Q2, 27-node elements, 27-point rule): the constant-coefficient
# fast path computes one 27x27 local matrix (~2 * 27^2 * 27 flops) but
# the dominant cost is the global scatter of 27^2 entries per element
# plus load evaluation — order 5e3 effective flops per element; the
# "full" mode einsum path costs ~8e4.  We model the full path.
#
# NS (Q1, 8-node elements): per-quad advection einsum over 3 components
# plus operator combination: ~6e3 flops per element per step, but there
# are 7 solves sharing assembly, so per-element assembly work is higher
# in aggregate; solve work spans 3 BiCGStab + 1 pressure CG + 3 mass
# solves.
RD_WORKLOAD = AppWorkload(
    name="reaction-diffusion",
    fields=1,
    order=2,
    assembly_flops_per_element=8.0e4,
    precond_flops_per_dof=30.0,
    solve_flops_per_dof_iter=180.0,
    base_solver_iters=12.0,
    iter_growth=0.35,
)

NS_WORKLOAD = AppWorkload(
    name="navier-stokes",
    fields=4,
    order=1,
    assembly_flops_per_element=2.4e4,
    precond_flops_per_dof=40.0,
    solve_flops_per_dof_iter=220.0,
    base_solver_iters=55.0,
    iter_growth=0.55,
)

_WORKLOADS = {
    "rd": RD_WORKLOAD,
    "ns": NS_WORKLOAD,
    RD_WORKLOAD.name: RD_WORKLOAD,
    NS_WORKLOAD.name: NS_WORKLOAD,
}


def workload_by_name(name: str) -> AppWorkload:
    """'rd' / 'ns' (or a workload's model name) -> the workload model."""
    try:
        return _WORKLOADS[name.lower()]
    except KeyError:
        raise ExperimentError(
            f"unknown application {name!r}; choose from {sorted(_WORKLOADS)}"
        ) from None


def paper_rank_series(max_ranks: int = 1000) -> list[int]:
    """The paper's weak-scaling series: 1, 8, 27, ..., 1000 (cubes)."""
    series = []
    q = 1
    while q**3 <= max_ranks:
        series.append(q**3)
        q += 1
    return series
