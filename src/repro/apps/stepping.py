"""One distributed step protocol and one time loop for both applications.

A :class:`DistributedStep` splits a time step into the paper's three
phases over a solver that owns the replicated state, and
:meth:`DistributedStep.run` is the one time loop around them.  The plain
SPMD drivers, the resilient runner and the malleable segments all call
it, differing only in the hooks they pass.  Each solver's restart state
is ``state()`` / ``restore()``
(:class:`~repro.io.checkpoint.SolverState`), which
:func:`repro.io.checkpoint.save_state` / ``load_state`` persist.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.apps.phases import PHASE_NAMES, PhaseClock, PhaseLog
from repro.errors import ReproError
from repro.obs.core import NULL_RANK_OBS


@dataclass(frozen=True)
class StepRecord:
    """Everything one completed time step leaves behind.

    The golden bit-exact-resume tests compare these between a straight
    run and a killed-and-resumed run: for a truly transparent restart,
    every field must match for every overlapping step — including the
    full residual history and the per-step allreduce count.  A step of
    several linear solves (NS runs seven) sums the counts, concatenates
    the residual histories in solve order and keeps the largest final
    residual.
    """

    step: int
    t: float
    iterations: int
    residual_norm: float
    allreduce_rounds: int
    residuals: tuple[float, ...]

    @classmethod
    def from_solves(cls, step: int, t: float, results) -> "StepRecord":
        """The record of step ``step``, whose linear solves advanced to time ``t``."""
        return cls(
            step=step,
            t=t,
            iterations=sum(r.iterations for r in results),
            residual_norm=max(r.residual_norm for r in results),
            allreduce_rounds=sum(r.allreduce_rounds for r in results),
            residuals=tuple(chain.from_iterable(r.residuals for r in results)),
        )


def slab_ownership(dofmap, num_ranks: int) -> list[np.ndarray]:
    """Geometric z-slab DOF ownership (contiguous in lattice numbering).

    The lattice is numbered x-fastest, so splitting the flat index range
    at z-plane boundaries gives each rank a contiguous slab whose halo
    with the next rank is exactly one lattice plane — the same surface
    structure a ParMETIS block partition produces.
    """
    mx, my, mz = dofmap.lattice_shape
    if num_ranks > mz:
        raise ReproError(
            f"cannot slab-partition {mz} z-planes over {num_ranks} ranks"
        )
    plane = mx * my
    bounds = np.linspace(0, mz, num_ranks + 1).round().astype(int)
    return [
        np.arange(bounds[r] * plane, bounds[r + 1] * plane, dtype=np.int64)
        for r in range(num_ranks)
    ]


class DistributedStep:
    """One application's distributed time step, in the paper's three phases.

    A subclass names the problem type it solves (``PROBLEM``), builds its
    solver, and implements :meth:`assemble`, :meth:`precondition` and
    :meth:`solve`; the solver owns the replicated state (BDF histories,
    ``t``, counters), the step owns what distribution adds.
    ``ownership`` (default: :func:`slab_ownership`) and ``numbering`` go
    to :meth:`DistMatrix.from_rows
    <repro.la.distributed.DistMatrix.from_rows>` unchanged; ``tol``
    and ``preconditioner`` default to the class's ``TOL`` and
    ``DEFAULT_PRECONDITIONER``.
    """

    PROBLEM: type
    TOL: float
    #: Distributed preconditioner name -> factory (None: unpreconditioned).
    PRECONDITIONERS: dict = {"none": None, "identity": None}
    DEFAULT_PRECONDITIONER = "none"
    #: The preconditioner whose result does not depend on the rank count,
    #: for runs that change width (``docs/elasticity.md``).
    INVARIANT_PRECONDITIONER = "none"
    #: Phases whose local work is charged to the virtual clock.
    CHARGED_PHASES: tuple[str, ...] = ("assembly",)

    def __init__(
        self,
        comm,
        problem,
        tol: float | None = None,
        preconditioner: str | None = None,
        ownership: list[np.ndarray] | None = None,
        numbering: str = "owned-first",
    ):
        if preconditioner is not None and preconditioner not in self.PRECONDITIONERS:
            raise ReproError(f"unknown distributed preconditioner {preconditioner!r}")
        self.preconditioner = preconditioner or self.DEFAULT_PRECONDITIONER
        self.comm = comm
        self.tol = self.TOL if tol is None else tol
        self.solver = self.make_solver(problem, self.tol)
        if ownership is None:
            ownership = slab_ownership(self.solver.dofmap, comm.size)
        self.ownership = ownership
        self.numbering = numbering

    @staticmethod
    def for_problem(problem) -> type["DistributedStep"]:
        """The step class of ``problem``'s application."""
        for cls in DistributedStep.__subclasses__():
            if isinstance(problem, cls.PROBLEM):
                return cls
        raise ReproError(f"no distributed step for {type(problem).__name__}")

    def make_solver(self, problem, tol: float):
        """The application's solver for ``problem``, built once per step object."""
        raise NotImplementedError

    def assemble(self) -> None:
        """Assemble the system at ``t + dt`` (and push it to the ranks)."""
        raise NotImplementedError

    def precondition(self) -> None:
        """Build or refresh the distributed preconditioner."""
        raise NotImplementedError

    def solve(self) -> tuple:
        """Run the step's linear solves and advance the solver; returns
        their :class:`~repro.la.krylov.SolveResult` s in solve order."""
        raise NotImplementedError

    def run(
        self,
        num_steps: int,
        cpu_speed_factor: float = 1.0,
        compute_charger=None,
        discard: int = 0,
        view=NULL_RANK_OBS,
        before_step=None,
        gate=None,
        on_record=None,
    ) -> PhaseLog:
        """The time loop: ``num_steps`` steps from the solver's current one.

        The local work of each of ``CHARGED_PHASES`` is measured and put
        on the virtual clock scaled by ``cpu_speed_factor``, or priced by
        ``compute_charger`` (``(phase, measured_seconds) -> seconds``,
        e.g. :class:`repro.perfmodel.compute.ModeledCompute`, which makes
        recordings replayable bit-for-bit).  ``view`` gets a ``step``
        span per step with the phases as children, and the post-discard
        ``phase_seconds`` in :meth:`~repro.apps.phases.PhaseLog.averages`
        order, so the histogram mean is the paper's reduction exactly.
        Hooks: ``before_step(step)`` ahead of each step, ``gate(phase)``
        at each phase entry, ``on_record(record)`` with each finished
        :class:`StepRecord`.  Returns the phase log (virtual durations).
        """
        if cpu_speed_factor <= 0:
            raise ReproError("cpu_speed_factor must be positive")
        comm, solver = self.comm, self.solver
        clock = PhaseClock(now=lambda: comm.time)
        log = PhaseLog(discard=discard)
        # solve() is last, so after each step ``results`` holds its solves.
        phases = tuple(zip(PHASE_NAMES, (self.assemble, self.precondition, self.solve)))
        first = solver.steps_taken
        for step in range(first, first + num_steps):
            if before_step is not None:
                before_step(step)
            with view.span("step", step=step):
                for name, work in phases:
                    if gate is not None:
                        gate(name)
                    with clock.phase(name), view.span(name):
                        start = time.perf_counter()
                        results = work()
                        if name in self.CHARGED_PHASES:
                            seconds = time.perf_counter() - start
                            if compute_charger is not None:
                                comm.compute(compute_charger(name, seconds), label=name)
                            else:
                                comm.compute(seconds / cpu_speed_factor)
                log.append(clock.finish_iteration())
            if on_record is not None:
                on_record(StepRecord.from_solves(step, solver.t, results))

        if view.enabled:
            for it in log.measured:
                for name in PHASE_NAMES:
                    view.observe("phase_seconds", getattr(it, name), phase=name)
        return log
