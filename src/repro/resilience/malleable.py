"""Malleable (shrink/expand) execution of the distributed RD time loop.

The paper's §VII placements are chosen once, up front; when a spot
reclaim shrinks the machine mid-run the only 2012 answer was restart in
place at the same width (:mod:`repro.resilience.runner`).  This module
closes ROADMAP item 3's remaining gap: a running solve can now *change
rank count* between time steps — shrink onto the surviving instances or
expand onto a replacement assembly — without perturbing the computed
trajectory.

The lifecycle (``docs/elasticity.md``) is checkpoint → repartition →
resume:

1. a segment of the time loop runs at ``p_old`` ranks and persists a v2
   restart checkpoint (:func:`repro.io.checkpoint.save_history_state`);
2. :func:`repartition_state` loads the checkpoint, re-decomposes the
   mesh at ``p_new`` with the existing RCB partitioner
   (:func:`repro.partition.partition_rcb`), derives the new DOF
   ownership, and reports the redistribution (moved DOFs, edge cut,
   balance);
3. the next segment resumes at ``p_new`` from the restored BDF history.

Bit-consistency across the width change is guaranteed by the
deterministic numerics mode of :mod:`repro.la.distributed`
(``numbering="global"`` + rank-count-invariant dot products + the
element-wise Jacobi preconditioner): every segment computes exactly the
scalars an uninterrupted fixed-``p`` run computes, so the per-step
records and final solution are bit-identical for *any* schedule at
matching discretization — the property the gate tests pin.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ResilienceError
from repro.apps.exact import RDManufacturedSolution
from repro.apps.reaction_diffusion import RDProblem
from repro.fem.assembly import (
    CompositeOperator,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
)
from repro.fem.bdf import BDF
from repro.fem.boundary import DirichletPlan
from repro.fem.dofmap import DofMap
from repro.io.checkpoint import load_history_state, save_history_state
from repro.partition import edge_cut, load_imbalance, partition_rcb
from repro.resilience.runner import StepRecord
from repro.simmpi.launcher import run_spmd

#: File name of the malleable restart checkpoint inside checkpoint_dir.
MALLEABLE_CHECKPOINT = "rd-malleable.ckpt"


def _discretization(problem: RDProblem) -> dict:
    """The checkpoint-compatibility key (rank count deliberately absent)."""
    return {
        "mesh_shape": list(problem.mesh_shape),
        "order": problem.order,
        "bdf_order": problem.bdf_order,
        "dt": problem.dt,
    }


def ownership_from_partition(
    dofmap: DofMap, assignment: np.ndarray, num_parts: int
) -> list[np.ndarray]:
    """DOF ownership derived from an element partition.

    Every DOF goes to the lowest-numbered part among the elements
    touching it — the deterministic tie-break ParMETIS-style tools use
    for interface nodes.  Raises if any part ends up empty (a partition
    that cannot host a rank is a caller error).
    """
    owner = np.full(dofmap.num_dofs, num_parts, dtype=np.int64)
    cell_dofs = dofmap.cell_dofs
    for part in range(num_parts - 1, -1, -1):
        cells = np.nonzero(assignment == part)[0]
        owner[np.unique(cell_dofs[cells])] = part
    ownership = [
        np.nonzero(owner == part)[0].astype(np.int64)
        for part in range(num_parts)
    ]
    for part, idx in enumerate(ownership):
        if idx.size == 0:
            raise ResilienceError(
                f"repartition produced an empty DOF set for rank {part}"
            )
    return ownership


@dataclass(frozen=True)
class RepartitionReport:
    """One checkpoint → repartition → resume transition, quantified."""

    p_old: int
    p_new: int
    step: int
    t: float
    num_dofs: int
    moved_dofs: int
    edge_cut: int
    load_imbalance: float
    seconds: float

    @property
    def moved_fraction(self) -> float:
        """Fraction of the global DOF set that changed owner."""
        return self.moved_dofs / self.num_dofs if self.num_dofs else 0.0

    def to_dict(self) -> dict:
        return {
            "p_old": self.p_old,
            "p_new": self.p_new,
            "step": self.step,
            "t": self.t,
            "num_dofs": self.num_dofs,
            "moved_dofs": self.moved_dofs,
            "moved_fraction": self.moved_fraction,
            "edge_cut": self.edge_cut,
            "load_imbalance": self.load_imbalance,
            "seconds": self.seconds,
        }


def decompose(problem: RDProblem, num_ranks: int) -> list[np.ndarray]:
    """RCB mesh decomposition at ``num_ranks``, as DOF ownership.

    Handles any ``1 <= num_ranks <= num_elements`` including
    non-power-of-two targets (RCB splits proportionally).
    """
    if num_ranks < 1:
        raise ResilienceError(f"need at least one rank, got {num_ranks}")
    dofmap = DofMap(problem.mesh(), problem.order)
    assignment = partition_rcb(problem.mesh(), num_ranks)
    return ownership_from_partition(dofmap, assignment, num_ranks)


def repartition_state(
    checkpoint_path: str | Path,
    problem: RDProblem,
    p_new: int,
) -> tuple[list[np.ndarray], float, int, list[np.ndarray], RepartitionReport]:
    """Load a v2 checkpoint written at ``p_old`` and re-decompose at ``p_new``.

    The BDF history in a v2 checkpoint is stored as *global* replicated
    vectors, so redistribution is a pure re-indexing: the new ownership
    map decides which slice each resuming rank extracts.  Returns
    ``(states, t, step, ownership, report)`` where ``states`` is the
    history newest-first, ``ownership`` the new per-rank DOF index
    arrays, and ``report`` the :class:`RepartitionReport` (moved DOFs
    counted against the decomposition recorded in the checkpoint).
    """
    start = time.perf_counter()
    states, t, step, meta = load_history_state(
        checkpoint_path,
        app="reaction-diffusion",
        discretization=_discretization(problem),
    )
    p_old = int(meta.get("num_ranks", 0))
    dofmap = DofMap(problem.mesh(), problem.order)
    assignment = partition_rcb(problem.mesh(), p_new)
    ownership = ownership_from_partition(dofmap, assignment, p_new)

    owner_new = np.empty(dofmap.num_dofs, dtype=np.int64)
    for rank, idx in enumerate(ownership):
        owner_new[idx] = rank
    if p_old >= 1:
        old_ownership = decompose(problem, p_old)
        owner_old = np.empty(dofmap.num_dofs, dtype=np.int64)
        for rank, idx in enumerate(old_ownership):
            owner_old[idx] = rank
        moved = int(np.count_nonzero(owner_new != owner_old))
    else:
        moved = dofmap.num_dofs
    report = RepartitionReport(
        p_old=p_old,
        p_new=p_new,
        step=int(step),
        t=float(t),
        num_dofs=int(dofmap.num_dofs),
        moved_dofs=moved,
        edge_cut=edge_cut(problem.mesh(), assignment),
        load_imbalance=load_imbalance(problem.mesh(), assignment, p_new),
        seconds=time.perf_counter() - start,
    )
    return states, float(t), int(step), ownership, report


@dataclass(frozen=True)
class MalleableRunResult:
    """Outcome of a malleable run: the physics plus the width ledger."""

    solution: np.ndarray
    t: float
    records: list[StepRecord]
    repartitions: list[RepartitionReport]
    nodal_error: float


def run_malleable(
    problem: RDProblem,
    schedule: list[tuple[int, int]],
    checkpoint_dir: str | Path,
    tol: float = 1e-12,
    real_timeout: float = 120.0,
    obs=None,
) -> MalleableRunResult:
    """Run the RD time loop through a rank-count ``schedule``.

    ``schedule`` is a list of ``(num_ranks, num_steps)`` segments whose
    step counts must sum to ``problem.num_steps``.  Between segments the
    driver persists a v2 checkpoint, calls :func:`repartition_state`,
    and resumes at the next width — the full malleable lifecycle, even
    when consecutive segments share a width.

    Every segment runs the deterministic numerics mode (globally
    numbered columns, rank-count-invariant dots, element-wise Jacobi),
    so the returned records and solution are bit-identical to a
    fixed-``p`` run of the same problem for *any* schedule.
    """
    if not schedule:
        raise ResilienceError("malleable schedule must have at least one segment")
    for width, steps in schedule:
        if width < 1 or steps < 1:
            raise ResilienceError(
                f"malleable segment ({width}, {steps}) needs >= 1 rank and step"
            )
    total = sum(steps for _, steps in schedule)
    if total != problem.num_steps:
        raise ResilienceError(
            f"schedule covers {total} steps but the problem has "
            f"{problem.num_steps}"
        )
    checkpoint_path = Path(checkpoint_dir) / MALLEABLE_CHECKPOINT
    checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
    checkpoint_path.unlink(missing_ok=True)

    shared: dict = {"records": {}, "final": None, "history": None, "t": None}
    repartitions: list[RepartitionReport] = []
    cursor = 0
    for index, (width, steps) in enumerate(schedule):
        if index == 0:
            resume = None
            ownership = decompose(problem, width)
        else:
            states, t, _step, ownership, report = repartition_state(
                checkpoint_path, problem, width
            )
            repartitions.append(report)
            resume = (states, t)
        run_spmd(
            target=_segment_body,
            num_ranks=width,
            args=(problem, ownership, resume, cursor, steps, tol, shared),
            real_timeout=real_timeout,
            observability=obs,
        )
        cursor += steps
        if cursor < problem.num_steps:
            save_history_state(
                checkpoint_path,
                app="reaction-diffusion",
                states=shared["history"],  # newest first
                t=shared["t"],
                step=cursor,
                discretization=_discretization(problem),
                extra_metadata={"num_ranks": width},
            )

    solution, t, nodal_error = shared["final"]
    records = [shared["records"][s] for s in range(problem.num_steps)]
    return MalleableRunResult(
        solution=solution,
        t=t,
        records=records,
        repartitions=repartitions,
        nodal_error=nodal_error,
    )


def _segment_body(
    comm,
    problem: RDProblem,
    ownership: list[np.ndarray],
    resume: tuple[list[np.ndarray], float] | None,
    start_step: int,
    num_steps: int,
    tol: float,
    shared: dict,
):
    """One fixed-width segment of the malleable time loop.

    Mirrors :func:`~repro.apps.reaction_diffusion.run_rd_distributed`
    step for step, but with the deterministic numerics mode switched on
    and the (replicated) BDF history handed back through ``shared`` so
    the driver can checkpoint between segments.
    """
    from repro.la.distributed import (
        DistJacobiPreconditioner,
        DistMatrix,
        DistVector,
        dist_cg_fused,
    )

    rank = comm.rank
    exact = RDManufacturedSolution()
    dofmap = DofMap(problem.mesh(), problem.order)
    coords = dofmap.dof_coords
    bdf = BDF(problem.bdf_order, problem.dt)
    if resume is not None:
        states, t = resume
        bdf.initialize(list(reversed(states)))  # oldest first
    else:
        times = [problem.t0 + i * problem.dt for i in range(problem.bdf_order)]
        bdf.initialize([exact(coords, tt) for tt in times])
        t = times[-1]

    mass = assemble_mass(dofmap)
    stiffness = assemble_stiffness(dofmap)
    composite = CompositeOperator({"mass": mass, "stiffness": stiffness})
    cached_load = assemble_load(dofmap, exact.SOURCE_VALUE)
    boundary = dofmap.boundary_dofs
    combined = None
    plan = None
    dist = None
    precond = None

    def charge(real_seconds: float) -> None:
        comm.compute(real_seconds)

    solution = bdf.latest()
    for s in range(start_step, start_step + num_steps):
        t_new = t + problem.dt
        alpha0 = bdf.alpha0

        start = time.perf_counter()
        mass_coeff = alpha0 / problem.dt - 2.0 / t_new
        combined = composite.combine(
            {"mass": mass_coeff, "stiffness": 1.0 / t_new**2}, out=combined
        )
        rhs = cached_load + mass @ (bdf.history_rhs() / problem.dt)
        values = exact(coords[boundary], t_new)
        if plan is None:
            plan = DirichletPlan(combined, boundary, symmetric=True)
        matrix, rhs = plan.apply(combined, rhs, values)
        if dist is None:
            dist = DistMatrix.from_global(
                comm, matrix, ownership=ownership, numbering="global"
            )
        else:
            dist.update_values(matrix)
        charge(time.perf_counter() - start)

        start = time.perf_counter()
        if precond is None:
            precond = DistJacobiPreconditioner(dist)
        else:
            precond.update(dist)
        charge(time.perf_counter() - start)

        rhs_dist = dist.vector_from_global(rhs)
        x0_dist = dist.vector_from_global(bdf.latest())
        result = dist_cg_fused(
            dist, rhs_dist, x0=x0_dist, preconditioner=precond,
            tol=tol, maxiter=5000,
        )
        full = dist.gather_global(
            DistVector(comm, result.x, dist.ghost_indices.size), root=0
        )
        full = comm.bcast(full, root=0)

        bdf.advance(full)
        solution = full
        t = t_new
        if rank == 0:
            shared["records"][s] = StepRecord(
                step=s,
                t=t_new,
                iterations=result.iterations,
                residual_norm=result.residual_norm,
                allreduce_rounds=result.allreduce_rounds,
                residuals=tuple(result.residuals),
            )

    if rank == 0:
        shared["history"] = [np.asarray(h).copy() for h in bdf._history]
        shared["t"] = t
        nodal_error = float(np.max(np.abs(solution - exact(coords, t))))
        shared["final"] = (solution, t, nodal_error)
    return solution[ownership[rank]]
