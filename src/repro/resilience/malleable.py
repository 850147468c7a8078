"""Malleable (shrink/expand) execution of either application's time loop.

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
   restart checkpoint (:func:`repro.io.checkpoint.save_state`);
2. :func:`repartition_state` loads the checkpoint, re-decomposes the
   mesh at ``p_new`` with the existing RCB partitioner
   (:func:`repro.partition.partition_rcb`), derives the new DOF
   ownership, and reports the redistribution (moved DOFs, edge cut,
   balance);
3. the next segment resumes at ``p_new`` from the restored state.

Every segment runs the problem's distributed step
(:meth:`~repro.apps.stepping.DistributedStep.for_problem`) through the
one time loop the plain SPMD drivers and the resilient runner run.
Bit-consistency across the width change is guaranteed by the distributed
linear algebra's deterministic numerics mode (``numbering="global"`` +
rank-count-invariant dot products + the step's
``INVARIANT_PRECONDITIONER``, ``docs/elasticity.md``): every segment
computes exactly the scalars an uninterrupted fixed-``p`` run computes,
so the per-step records and final solution are bit-identical for *any*
schedule at matching discretization — the property the gate tests pin.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ResilienceError
from repro.apps.stepping import DistributedStep, StepRecord
from repro.fem.dofmap import DofMap
from repro.io.checkpoint import load_state, read_state, save_state
from repro.partition import edge_cut, load_imbalance, partition_rcb
from repro.simmpi.launcher import run_spmd

#: File name of the malleable restart checkpoint inside checkpoint_dir.
MALLEABLE_CHECKPOINT = "malleable.ckpt"


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


def decompose(problem, num_ranks: int) -> list[np.ndarray]:
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
    problem,
    p_new: int,
) -> tuple[list[np.ndarray], float, int, list[np.ndarray], RepartitionReport]:
    """Load a v2 checkpoint written at ``p_old`` and re-decompose at ``p_new``.

    The state in a v2 checkpoint is stored as *global* replicated
    vectors, so redistribution is a pure re-indexing: the new ownership
    map decides which slice each resuming rank extracts.  Returns
    ``(states, t, step, ownership, report)`` where ``states`` are the
    checkpointed fields (BDF histories newest-first; NS then the
    pressure), ``ownership`` the new per-rank DOF index arrays, and
    ``report`` the :class:`RepartitionReport` (moved DOFs counted
    against the decomposition recorded in the checkpoint).
    """
    start = time.perf_counter()
    state, meta = read_state(checkpoint_path, problem)
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
        step=state.step,
        t=state.t,
        num_dofs=int(dofmap.num_dofs),
        moved_dofs=moved,
        edge_cut=edge_cut(problem.mesh(), assignment),
        load_imbalance=load_imbalance(problem.mesh(), assignment, p_new),
        seconds=time.perf_counter() - start,
    )
    return state.fields, state.t, state.step, ownership, report


@dataclass(frozen=True)
class MalleableRunResult:
    """Outcome of a malleable run: the physics plus the width ledger."""

    solution: np.ndarray
    t: float
    records: list[StepRecord]
    repartitions: list[RepartitionReport]
    nodal_error: float


def run_malleable(
    problem,
    schedule: list[tuple[int, int]],
    checkpoint_dir: str | Path,
) -> MalleableRunResult:
    """Run the problem's time loop through a rank-count ``schedule``.

    ``schedule`` is a list of ``(num_ranks, num_steps)`` segments whose
    step counts must sum to ``problem.num_steps``.  Between segments the
    driver persists a v2 checkpoint, calls :func:`repartition_state`,
    and resumes at the next width — the full malleable lifecycle, even
    when consecutive segments share a width.

    Every segment runs the deterministic numerics mode (globally
    numbered columns, rank-count-invariant dots, the step's
    width-invariant preconditioner), so the returned records and
    solution are bit-identical to a fixed-``p`` run of the same problem
    for *any* schedule, solved to the step's ``TOL``.
    """
    step_class = DistributedStep.for_problem(problem)
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

    shared: dict = {"records": {}, "solver": None}
    repartitions: list[RepartitionReport] = []
    for index, (width, steps) in enumerate(schedule):
        if index == 0:
            resume_from = None
            ownership = decompose(problem, width)
        else:
            *_, ownership, report = repartition_state(checkpoint_path, problem, width)
            repartitions.append(report)
            resume_from = checkpoint_path
        run_spmd(
            target=_segment_body,
            num_ranks=width,
            args=(step_class, problem, ownership, resume_from, steps, shared),
        )
        if index < len(schedule) - 1:
            save_state(
                checkpoint_path, shared["solver"],
                extra_metadata={"num_ranks": width},
            )

    solver = shared["solver"]
    return MalleableRunResult(
        solution=solver.solution,
        t=solver.t,
        records=[shared["records"][s] for s in range(problem.num_steps)],
        repartitions=repartitions,
        nodal_error=solver.nodal_error(),
    )


def _segment_body(
    comm,
    step_class: type[DistributedStep],
    problem,
    ownership: list[np.ndarray],
    resume_from: Path | None,
    num_steps: int,
    shared: dict,
):
    """One fixed-width segment of the malleable time loop.

    The shared time loop with the deterministic numerics mode switched
    on (RCB ownership, globally numbered columns, width-invariant
    preconditioner); rank 0 hands the solver — and with it the
    replicated state — back through ``shared`` so the driver can
    checkpoint between segments.
    """
    step = step_class(
        comm, problem, preconditioner=step_class.INVARIANT_PRECONDITIONER,
        ownership=ownership, numbering="global",
    )
    if resume_from is not None:
        load_state(resume_from, step.solver)

    def on_record(record: StepRecord) -> None:
        if comm.rank == 0:
            shared["records"][record.step] = record

    step.run(num_steps, on_record=on_record)
    if comm.rank == 0:
        shared["solver"] = step.solver
    return step.solver.solution[ownership[comm.rank]]
