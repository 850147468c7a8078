"""The reaction-diffusion application (§IV.A).

Solves ``du/dt - (1/t^2) lap(u) - (2/t) u = -6`` on the unit cube with
Q2 elements and BDF2, prescribing the manufactured solution on the
boundary.  Because the manufactured solution is quadratic in both space
and time, the Q2/BDF2 discretization commits *no* discretization error:
the computed nodal values match the exact solution to solver tolerance,
which is the correctness check the paper ran on every platform.

The weak form per time step (t = t^{n+1}):

    [ (alpha0/dt) M + (1/t^2) K - (2/t) M ] u^{n+1}
        = F(-6) + (1/dt) M sum_i beta_i u^{n+1-i}

with Dirichlet data from the exact solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.sparse as sp

from repro.errors import ReproError, SolverError
from repro.apps.exact import RDManufacturedSolution
from repro.apps.phases import IterationPhases, PhaseClock, PhaseLog
from repro.apps.shared import shared_discretization
from repro.apps.stepping import DistributedStep
from repro.fem.assembly import (
    CompositeOperator,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
)
from repro.fem.bdf import BDF
from repro.fem.boundary import DirichletPlan, apply_dirichlet
from repro.fem.dofmap import DofMap
from repro.fem.function import l2_error
from repro.fem.mesh import StructuredBoxMesh
from repro.io.checkpoint import SolverState
from repro.la.distributed import (
    DistBlockJacobiPreconditioner,
    DistJacobiPreconditioner,
    DistMatrix,
    dist_cg_fused,
)
from repro.la.krylov import SolveResult, cg
from repro.la.preconditioners import make_preconditioner
from repro.obs.core import NULL_RANK_OBS


@dataclass(frozen=True)
class RDProblem:
    """Problem definition: mesh, element order, time grid.

    The paper's weak-scaling runs load each MPI process with a 20^3
    element mesh; ``mesh_shape`` is the *global* mesh.
    """

    #: The application name a checkpoint of this problem carries.
    APP: ClassVar[str] = "reaction-diffusion"

    mesh_shape: tuple[int, int, int] = (20, 20, 20)
    order: int = 2
    dt: float = 0.05
    t0: float = 1.0
    num_steps: int = 10
    bdf_order: int = 2

    def __post_init__(self) -> None:
        if self.t0 <= 0:
            raise ReproError("the RD coefficients are singular at t <= 0; pick t0 > 0")
        if self.num_steps < 1:
            raise ReproError(f"need at least one step, got {self.num_steps}")
        # SPD requirement for CG: (alpha0/dt) must dominate the 2/t reaction.
        alpha0 = 1.5 if self.bdf_order == 2 else 1.0
        if alpha0 / self.dt <= 2.0 / self.t0:
            raise ReproError(
                f"dt={self.dt} too large: operator loses positive definiteness "
                f"(alpha0/dt = {alpha0 / self.dt:.2f} <= 2/t0 = {2 / self.t0:.2f})"
            )

    def mesh(self) -> StructuredBoxMesh:
        """The unit-cube mesh of the problem."""
        return StructuredBoxMesh(self.mesh_shape)

    def discretization(self) -> dict:
        """The checkpoint-compatibility key (rank count deliberately absent).

        Every entry is validated on load: a BDF history restored onto a
        different mesh, element order, scheme order or step size would
        silently continue a different trajectory.
        """
        return {
            "mesh_shape": list(self.mesh_shape),
            "order": self.order,
            "bdf_order": self.bdf_order,
            "dt": self.dt,
        }


@dataclass(frozen=True, eq=False)
class RDOperators:
    """What an RD solver builds before its first step; shared read-only.

    A function of the mesh and element order only (not of ``dt``, ``t0``
    or ``num_steps``), so every solver of a launch holds one instance
    (:func:`~repro.apps.shared.shared_discretization`).
    """

    dofmap: DofMap
    mass: sp.csr_matrix
    load: np.ndarray
    composite: CompositeOperator | None  #: ``"combine"`` mode only

    @classmethod
    def build(cls, problem: RDProblem, assembly_mode: str) -> "RDOperators":
        """Assemble the bundle; ``"full"`` mode pays for no K and no composite."""
        dofmap = DofMap(problem.mesh(), problem.order).materialize()
        mass = assemble_mass(dofmap)  # "full" needs M too: the history term
        load = assemble_load(dofmap, RDManufacturedSolution.SOURCE_VALUE)
        composite = None
        if assembly_mode == "combine":
            # The hot-path cache: the merged sparsity of a(t)M + b(t)K is
            # computed once; each step only rewrites a data array.
            composite = CompositeOperator(
                {"mass": mass, "stiffness": assemble_stiffness(dofmap)}
            )
        return cls(dofmap, mass, load, composite)


class RDRows:
    """The rows of the ``"combine"``-mode RD system one solver assembles.

    Cut once from the launch's shared operators: all rows for a
    sequential solver, a rank's owned rows (``rows``, global indices)
    for a :class:`DistributedRDStep`.  Each step combines, lifts and
    constrains these rows only; every row is the same CSR row summed in
    the same order as in the whole system, so a block is the whole
    system's rows bit for bit.
    """

    def __init__(self, operators: RDOperators, rows: np.ndarray | None = None):
        composite, mass, load = operators.composite, operators.mass, operators.load
        if rows is not None:
            composite, mass, load = composite.rows(rows), mass[rows], load[rows]
        self.composite, self.mass, self.load = composite, mass, load
        # The pattern, planned once; each step's combine() refills it.
        self.matrix = composite.combine({})
        self.plan = DirichletPlan(
            self.matrix, operators.dofmap.boundary_dofs, symmetric=True, rows=rows
        )

    def assemble(
        self, coefficients: dict[str, float], history: np.ndarray, values: np.ndarray
    ) -> tuple[sp.csr_matrix, np.ndarray]:
        """The constrained rows of ``sum(coefficients * components)`` and
        of ``load + M @ history``, boundary ``values`` imposed."""
        self.matrix = self.composite.combine(coefficients, out=self.matrix)
        return self.plan.apply(self.matrix, self.load + self.mass @ history, values)


class RDSolver:
    """Sequential RD solver with per-iteration phase instrumentation.

    ``assembly_mode``:

    * ``"full"`` — re-run the FEM assembly of mass and stiffness every
      step (what LifeV does for time-dependent coefficients; gives the
      assembly phase its real cost);
    * ``"combine"`` — assemble M and K once, combine per step (fast path
      for tests; assembly phase then measures the sparse combination).

    What is built before the first step (:class:`RDOperators`) is shared
    read-only with every other live solver of the same discretization —
    the other ranks of an SPMD launch; a lone solver is a launch of one.
    """

    def __init__(
        self,
        problem: RDProblem,
        preconditioner: str = "jacobi",
        tol: float = 1e-12,
        assembly_mode: str = "full",
        discard: int = 5,
    ):
        if assembly_mode not in ("full", "combine"):
            raise ReproError(f"unknown assembly_mode {assembly_mode!r}")
        self.problem = problem
        self.exact = RDManufacturedSolution()
        # Holding the bundle is what keeps the launch's shared entry alive.
        self._operators = ops = shared_discretization(
            (type(problem), tuple(problem.mesh_shape), problem.order, assembly_mode),
            lambda: RDOperators.build(problem, assembly_mode),
        )
        self.dofmap = ops.dofmap
        self._mass = ops.mass
        self._composite = ops.composite
        self._load = ops.load
        self.preconditioner_name = preconditioner
        self.tol = tol
        self.assembly_mode = assembly_mode
        self.clock = PhaseClock()
        self.log = PhaseLog(discard=discard)
        self.solve_iterations: list[int] = []
        self.residual_norms: list[float] = []
        self.steps_taken = 0

        self.bdf = BDF(problem.bdf_order, problem.dt)
        coords = self.dofmap.dof_coords
        # Seed the BDF history with exact states (they are representable
        # in Q2, so this introduces no error).
        times = [problem.t0 + i * problem.dt for i in range(problem.bdf_order)]
        self.bdf.initialize([self.exact(coords, t) for t in times])
        self.t = times[-1]

        self._rows: RDRows | None = None  # "combine" mode: built on the first step
        self._precond = None

    # -- single step ------------------------------------------------------

    def row_block(self, rows: np.ndarray | None = None) -> RDRows:
        """``"combine"`` mode's rows ``rows`` (default: all) of the system,
        cut from the shared operators, for :meth:`_assemble_system`."""
        return RDRows(self._operators, rows)

    def _assemble_system(
        self, t_new: float, block: RDRows | None = None
    ) -> tuple[sp.csr_matrix, np.ndarray]:
        """The constrained system at ``t_new``: the whole of it, or in
        ``"combine"`` mode only ``block``'s rows (a rank's owned rows)."""
        dt = self.problem.dt
        mass_coeff = self.bdf.alpha0 / dt - 2.0 / t_new
        history = self.bdf.history_rhs() / dt
        boundary = self.dofmap.boundary_dofs
        values = self.exact(self.dofmap.dof_coords[boundary], t_new)
        if self.assembly_mode == "full":
            matrix = (
                assemble_mass(self.dofmap, coefficient=mass_coeff)
                + assemble_stiffness(self.dofmap, coefficient=1.0 / t_new**2)
            ).tocsr()
            rhs = self._load + self._mass @ history
            return apply_dirichlet(matrix, rhs, boundary, values, symmetric=True)
        if block is None:
            block = self._rows = self._rows or self.row_block()
        # Rewrites the cached structure's data in place — no pattern
        # union, no COO->CSR round trip.
        return block.assemble(
            {"mass": mass_coeff, "stiffness": 1.0 / t_new**2}, history, values
        )

    def _refresh_preconditioner(self, matrix: sp.csr_matrix):
        """Reuse the preconditioner's symbolic structure when possible."""
        if self._precond is not None and hasattr(self._precond, "update"):
            try:
                return self._precond.update(matrix)
            except SolverError:
                pass  # pattern changed: fall through to a full rebuild
        self._precond = make_preconditioner(self.preconditioner_name, matrix)
        return self._precond

    def step(self) -> IterationPhases:
        """Advance one BDF2 step, timing the three phases."""
        t_new = self.t + self.problem.dt
        with self.clock.phase("assembly"):
            matrix, rhs = self._assemble_system(t_new)
        with self.clock.phase("preconditioner"):
            precond = self._refresh_preconditioner(matrix)
        with self.clock.phase("solve"):
            result = cg(
                matrix, rhs, x0=self.bdf.latest(), preconditioner=precond,
                tol=self.tol, maxiter=5000, strict=True,
            )
        self._advance(result.x, result)
        phases = self.clock.finish_iteration()
        self.log.append(phases)
        return phases

    def _advance(self, solution: np.ndarray, result: SolveResult) -> None:
        """Accept ``solution`` (global) as the state at ``t + dt``."""
        self.solve_iterations.append(result.iterations)
        self.residual_norms.append(result.residual_norm)
        self.bdf.advance(solution)
        self.t = self.t + self.problem.dt
        self.steps_taken += 1

    def run(self) -> PhaseLog:
        """Run all steps; returns the phase log."""
        for _ in range(self.problem.num_steps):
            self.step()
        return self.log

    # -- restart ---------------------------------------------------------------

    def state(self) -> SolverState:
        """The restart state: BDF history, clock and solve diagnostics."""
        return SolverState(
            fields=list(self.bdf.history),
            t=self.t,
            step=self.steps_taken,
            counters={
                "solve_iterations": list(self.solve_iterations),
                "residual_norms": list(self.residual_norms),
            },
        )

    def restore(self, state: SolverState) -> None:
        """Continue from ``state``; the inverse of :meth:`state`."""
        self.bdf.initialize(state.fields[::-1])  # oldest first
        self.t = state.t
        self.steps_taken = state.step
        self.solve_iterations = list(state.counters.get("solve_iterations", []))
        self.residual_norms = list(state.counters.get("residual_norms", []))

    # -- correctness ---------------------------------------------------------

    @property
    def solution(self) -> np.ndarray:
        """Current nodal solution values."""
        return self.bdf.latest()

    def nodal_error(self) -> float:
        """Max nodal deviation from the exact solution at the current time."""
        exact = self.exact(self.dofmap.dof_coords, self.t)
        return float(np.max(np.abs(self.solution - exact)))

    def l2_solution_error(self) -> float:
        """L2 error against the exact solution at the current time."""
        return l2_error(self.dofmap, self.solution, lambda p: self.exact(p, self.t))


# ---------------------------------------------------------------------------
# Distributed execution over simmpi
# ---------------------------------------------------------------------------


class DistributedRDStep(DistributedStep):
    """The one distributed RD time step, in the paper's three phases.

    The solver is an :class:`RDSolver` in ``"combine"`` mode: it holds the
    launch's shared step-invariant operators and owns the BDF history,
    ``t`` and the system assembly.  This class owns what the
    distribution adds — the rank's :class:`RDRows` (its owned rows, cut
    once at construction: each step assembles, constrains and refreshes
    only those), the :class:`~repro.la.distributed.DistMatrix` and
    preconditioner lifecycle, the fused CG, the global gather and the
    history advance, which stays replicated.
    :meth:`~repro.apps.stepping.DistributedStep.run` is its time loop.
    """

    PROBLEM = RDProblem
    TOL = 1e-12
    PRECONDITIONERS = {
        "block-jacobi": DistBlockJacobiPreconditioner,
        "jacobi": DistJacobiPreconditioner,
        "none": None,
        "identity": None,
    }
    DEFAULT_PRECONDITIONER = "block-jacobi"
    INVARIANT_PRECONDITIONER = "jacobi"  # element-wise
    CHARGED_PHASES = ("assembly", "preconditioner")

    dist: DistMatrix | None = None
    precond = None
    _rhs: np.ndarray | None = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.block = self.solver.row_block(self.ownership[self.comm.rank])

    def make_solver(self, problem: RDProblem, tol: float) -> RDSolver:
        """An :class:`RDSolver` in ``"combine"`` mode (the step rewrites data only)."""
        return RDSolver(problem, tol=tol, assembly_mode="combine")

    def assemble(self) -> None:
        """Assemble this rank's rows of the system at ``t + dt``."""
        solver = self.solver
        rows, self._rhs = solver._assemble_system(
            solver.t + solver.problem.dt, self.block
        )
        if self.dist is None:
            # First step: the collective structure exchange happens once.
            self.dist = DistMatrix.from_rows(
                self.comm, rows, ownership=self.ownership, numbering=self.numbering
            )
        else:
            # Later steps: communication-free in-place value refresh.
            self.dist.update_rows(rows)

    def precondition(self) -> None:
        """Build the preconditioner on the first step, refresh it afterwards."""
        factory = self.PRECONDITIONERS[self.preconditioner]
        if self.precond is not None:
            self.precond.update(self.dist)
        elif factory is not None:
            self.precond = factory(self.dist)

    def solve(self) -> tuple[SolveResult]:
        """Fused CG from the latest state, then advance the replicated history."""
        solver, dist = self.solver, self.dist
        result = dist_cg_fused(
            dist,
            dist.vector(self._rhs),
            x0=dist.vector_from_global(solver.bdf.latest()),
            preconditioner=self.precond,
            tol=self.tol,
            maxiter=5000,
        )
        solver._advance(dist.allgather_global(result.x), result)
        return (result,)


def run_rd_distributed(
    comm,
    problem: RDProblem,
    preconditioner: str = "block-jacobi",
    tol: float = 1e-12,
    cpu_speed_factor: float = 1.0,
    discard: int = 5,
    obs=None,
    compute_charger=None,
):
    """SPMD RD solve over simmpi: executed numerics, virtual-time phases.

    :meth:`DistributedRDStep.run <repro.apps.stepping.DistributedStep.run>`
    is the time loop: local computation is measured with the wall clock
    and charged to the rank's virtual clock scaled by
    ``cpu_speed_factor``, or by ``compute_charger`` when set (then
    ``cpu_speed_factor`` is ignored); communication costs accrue through
    the platform's network model inside the distributed CG.

    An optional ``obs`` hub (:class:`repro.obs.core.Observability`) records a
    ``step`` span per time step with the three paper phases as children
    (virtual-clock timestamps), the post-discard ``phase_seconds``
    histogram, ``rd_steps_total`` and the ``rd_nodal_error`` gauge.

    Returns ``(owned_solution_values, PhaseLog, nodal_error)`` per rank;
    the phase log carries *virtual* durations.
    """
    step = DistributedRDStep(comm, problem, tol, preconditioner)
    view = NULL_RANK_OBS if obs is None else obs.rank_view(comm)
    log = step.run(
        problem.num_steps, cpu_speed_factor, compute_charger, discard, view
    )
    solver = step.solver
    nodal_error = solver.nodal_error()
    if view.enabled:
        view.count("rd_steps_total", float(problem.num_steps))
        view.gauge("rd_nodal_error", nodal_error)
    return solver.solution[step.ownership[comm.rank]], log, nodal_error
