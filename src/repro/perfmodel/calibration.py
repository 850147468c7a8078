"""Calibration: anchoring the analytic model to executed numerics.

Two anchors:

1. **Paper anchor** — ``RD_TIME_SCALE`` makes the model's single-rank
   RD iteration on the EC2 platform take ~4.8 s, Table II's measured
   value (the constant absorbs everything a flop count cannot see:
   memory-bandwidth limits, C++ abstraction overheads, the P2
   tetrahedral elements of the real LifeV discretization).

2. **Host anchor** — :func:`calibrate_against_sequential_run` executes
   the real Python solver on this machine and reports measured seconds
   per model flop, so tests can assert the workload formulas are within
   an order of magnitude of executed reality.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.apps.workload import NS_WORKLOAD, RD_WORKLOAD, AppWorkload

# Paper anchors (see module docstring).  With the cc2.8xlarge sustained
# rate of 2.3 GF/core, the RD workload model gives ~0.34 s/iteration at
# one rank; Table II measured 4.83 s.
RD_TIME_SCALE = 14.0
# The NS discretization in the paper (P2/P1 monolithic) is heavier
# relative to its flop model; anchored to keep NS/RD per-iteration
# ratios in the 2-3x band the figures show at small rank counts.
NS_TIME_SCALE = 28.0


def time_scale_for(workload: AppWorkload) -> float:
    """The paper anchor for a workload."""
    if workload.name == RD_WORKLOAD.name:
        return RD_TIME_SCALE
    if workload.name == NS_WORKLOAD.name:
        return NS_TIME_SCALE
    raise ExperimentError(f"no calibration anchor for workload {workload.name!r}")


@dataclass(frozen=True)
class HostCalibration:
    """Measured host execution anchored to the workload flop model."""

    workload_name: str
    elements: int
    measured_assembly_s: float
    measured_solve_s: float
    model_assembly_flops: float
    model_solve_flops: float


def calibrate_iteration_growth(
    mesh_per_dim: int = 6, rank_counts: tuple[int, ...] = (1, 8)
) -> float:
    """Measure the Krylov iteration-growth rate from executed runs.

    Runs the distributed block-Jacobi-preconditioned CG on the RD
    operator at each rank count (through simmpi, so the numerics are the
    real ones) and fits the workload model's law

        iters(p) = iters(1) * (1 + growth * (p^(1/3) - 1)).

    Returns the fitted ``growth``; the workload constants are asserted
    against this measurement by the test suite.
    """
    import numpy as np

    from repro.apps.reaction_diffusion import RDProblem, run_rd_distributed
    from repro.simmpi.launcher import run_spmd

    if len(rank_counts) < 2 or min(rank_counts) != 1:
        raise ExperimentError("rank_counts must start at 1 and have >= 2 entries")
    problem = RDProblem(mesh_shape=(mesh_per_dim,) * 3, num_steps=2)

    def measure(p: int) -> float:
        def main(comm):
            # run_rd_distributed drives dist_cg_fused and does not expose
            # its per-step iteration counts, so solve the final step's
            # operator directly with dist_cg, its mathematical equivalent.
            from repro.fem.assembly import (
                assemble_load,
                assemble_mass,
                assemble_stiffness,
            )
            from repro.fem.boundary import apply_dirichlet
            from repro.fem.dofmap import DofMap
            from repro.la.distributed import (
                DistBlockJacobiPreconditioner,
                DistMatrix,
                dist_cg,
            )
            from repro.apps.stepping import slab_ownership

            dm = DofMap(problem.mesh(), problem.order)
            t = problem.t0 + problem.dt
            matrix = (
                assemble_mass(dm, coefficient=1.5 / problem.dt - 2.0 / t)
                + assemble_stiffness(dm, coefficient=1.0 / t**2)
            ).tocsr()
            rhs = assemble_load(dm, -6.0)
            matrix, rhs = apply_dirichlet(matrix, rhs, dm.boundary_dofs, 0.0)
            ownership = slab_ownership(dm, comm.size)
            dist = DistMatrix.from_global(comm, matrix, ownership=ownership)
            pre = DistBlockJacobiPreconditioner(dist)
            result = dist_cg(
                dist, dist.vector_from_global(rhs), preconditioner=pre,
                tol=1e-10, maxiter=2000,
            )
            return result.iterations

        out = run_spmd(main, p, real_timeout=120.0)
        return float(out.returns[0])

    iters = {p: measure(p) for p in rank_counts}
    base = iters[1]
    slopes = [
        (iters[p] / base - 1.0) / (p ** (1.0 / 3.0) - 1.0)
        for p in rank_counts
        if p > 1
    ]
    return float(np.mean(slopes))


def calibrate_against_sequential_run(
    mesh_per_dim: int = 6, num_steps: int = 4
) -> HostCalibration:
    """Execute the real RD solver and anchor the workload model to it.

    Runs the full-assembly RD solver on an ``n^3`` mesh, averages the
    phase timings (discarding the first iteration) and compares with the
    workload formulas at the same element count.
    """
    from repro.apps.reaction_diffusion import RDProblem, RDSolver

    if mesh_per_dim < 2 or num_steps < 2:
        raise ExperimentError("calibration needs mesh_per_dim >= 2, num_steps >= 2")
    problem = RDProblem(mesh_shape=(mesh_per_dim,) * 3, num_steps=num_steps)
    solver = RDSolver(problem, assembly_mode="full", discard=1)
    solver.run()
    averages = solver.log.averages()
    elements = mesh_per_dim**3
    return HostCalibration(
        workload_name=RD_WORKLOAD.name,
        elements=elements,
        measured_assembly_s=averages.assembly,
        measured_solve_s=averages.solve,
        model_assembly_flops=RD_WORKLOAD.assembly_flops(elements),
        model_solve_flops=RD_WORKLOAD.solve_flops(elements, 1),
    )
