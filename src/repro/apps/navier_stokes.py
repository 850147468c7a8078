"""The incompressible Navier-Stokes application (§IV.B).

Ethier-Steinman benchmark solved with:

* BDF2 in time;
* Q1 velocity components and Q1 pressure on the structured hex mesh;
* semi-implicit advection — the convecting field is the BDF2
  extrapolation ``2 u^n - u^{n-1}``, so each momentum solve is *linear*
  but the advection matrix must be re-assembled every step (this is
  precisely why the paper's assembly phase is a dominant cost for NS);
* incremental pressure-correction projection (Chorin-Temam with
  pressure increment):

    1. momentum:  [(a0/dt) M + nu K + C(u*)] u_i* =
                    (1/dt) M (sum_i beta_i u_i^{n+1-i}) - D_i p^n
       with exact-solution Dirichlet data (3 nonsymmetric solves);
    2. pressure increment:  K_p phi = -(a0/dt) sum_i D_i u_i*
       (pure Neumann, one DOF pinned; SPD solve);
    3. projection update:  M u_i^{n+1} = M u_i* - (dt/a0) D_i phi
       (3 mass solves), and p^{n+1} = p^n + phi.

The paper used P2/P1 Taylor-Hood with a monolithic preconditioned
solver; the projection scheme is the standard substitution when the
substrate favors scalar solves (documented in DESIGN.md).  It preserves
what the experiments measure: a 4-field problem with per-step assembly,
preconditioner setup, and communication-heavy iterative solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.sparse as sp

from repro.errors import ReproError, SolverError
from repro.apps.exact import EthierSteinmanSolution
from repro.apps.phases import IterationPhases, PhaseClock, PhaseLog
from repro.apps.shared import shared_discretization
from repro.apps.stepping import DistributedStep
from repro.fem.assembly import (
    CompositeOperator,
    assemble_advection,
    assemble_mass,
    assemble_stiffness,
    evaluate_at_quad,
)
from repro.fem.bdf import BDF
from repro.fem.boundary import (
    DirichletPlan,
    constrain_operator,
    lift_dirichlet_rhs,
    pin_dof,
)
from repro.fem.dofmap import DofMap
from repro.fem.function import vector_l2_error
from repro.fem.mesh import StructuredBoxMesh
from repro.fem.quadrature import default_rule_for_order
from repro.io.checkpoint import SolverState
from repro.la.distributed import DistMatrix, dist_bicgstab, dist_cg_fused
from repro.la.krylov import SolveResult, bicgstab, cg
from repro.la.preconditioners import make_preconditioner


@dataclass(frozen=True)
class NSProblem:
    """Ethier-Steinman setup: cube [-1,1]^3, nu = 1, a = pi/4, d = pi/2."""

    #: The application name a checkpoint of this problem carries.
    APP: ClassVar[str] = "navier-stokes"
    #: Velocity and pressure are both Q1.
    order: ClassVar[int] = 1

    #: Start time and BDF order of every run.
    t0: ClassVar[float] = 0.0
    bdf_order: ClassVar[int] = 2

    mesh_shape: tuple[int, int, int] = (8, 8, 8)
    dt: float = 0.002
    num_steps: int = 10
    nu: float = 1.0

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.num_steps < 1:
            raise ReproError("dt must be positive and num_steps >= 1")
        if self.nu <= 0:
            raise ReproError("viscosity must be positive")

    def mesh(self) -> StructuredBoxMesh:
        """The [-1, 1]^3 mesh of the Ethier-Steinman benchmark."""
        return StructuredBoxMesh(self.mesh_shape, lower=(-1, -1, -1), upper=(1, 1, 1))

    def discretization(self) -> dict:
        """The checkpoint-compatibility key (rank count deliberately absent)."""
        return {
            "mesh_shape": list(self.mesh_shape),
            "bdf_order": self.bdf_order,
            "dt": self.dt,
            "nu": self.nu,
        }


@dataclass(frozen=True, eq=False)
class NSOperators:
    """The step-invariant Q1 operators of an NS solver; shared read-only.

    They depend on the mesh only, so every solver of a launch holds the
    same instance (:func:`~repro.apps.shared.shared_discretization`).
    """

    dofmap: DofMap
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    grad_ops: tuple[sp.csr_matrix, ...]
    mass_bc: sp.csr_matrix

    @classmethod
    def build(cls, problem: NSProblem) -> "NSOperators":
        """Assemble the bundle (setup, not the loop)."""
        dm = DofMap(problem.mesh(), order=problem.order).materialize()
        mass = assemble_mass(dm).tocsr()
        stiffness = assemble_stiffness(dm).tocsr()
        # D_i[a, b] = integral(phi_a * d(phi_b)/dx_i): pressure gradient /
        # divergence coupling.
        grad_ops = tuple(
            assemble_advection(dm, np.eye(3)[i]).tocsr() for i in range(3)
        )
        mass_bc = constrain_operator(mass, dm.boundary_dofs)
        return cls(dm, mass, stiffness, grad_ops, mass_bc)


class NSSolver:
    """Sequential Navier-Stokes solver with phase instrumentation."""

    def __init__(
        self,
        problem: NSProblem,
        tol: float = 1e-10,
        discard: int = 5,
        rotational: bool = False,
    ):
        """``rotational=True`` selects the rotational incremental form
        (Timmermans/Guermond): ``p^{n+1} = p^n + phi - nu div(u*)``,
        which removes the artificial pressure Neumann boundary layer of
        the standard form.  Its payoff appears when the splitting error
        dominates; at the coarse resolutions the test suite affords, the
        two variants agree within the spatial error."""
        self.rotational = rotational
        self.problem = problem
        self.exact = EthierSteinmanSolution(nu=problem.nu)
        # Holding the bundle is what keeps the launch's shared entry alive.
        self._operators = ops = shared_discretization(
            (type(problem), tuple(problem.mesh_shape)),  # always Q1
            lambda: NSOperators.build(problem),
        )
        self.dofmap = dm = ops.dofmap
        self.preconditioner_name = "jacobi"
        self.tol = tol
        self.clock = PhaseClock()
        self.log = PhaseLog(discard=discard)
        self.momentum_iterations: list[int] = []
        self.pressure_iterations: list[int] = []
        self.steps_taken = 0

        self.rule = default_rule_for_order(1)
        self.mass = ops.mass
        self.stiffness = ops.stiffness
        self.grad_ops = ops.grad_ops
        self.boundary = dm.boundary_dofs
        self.mass_bc = ops.mass_bc

        # BDF history for the three velocity components.
        coords = dm.dof_coords
        self.bdf = [BDF(problem.bdf_order, problem.dt) for _ in range(3)]
        times = [problem.t0 + i * problem.dt for i in range(problem.bdf_order)]
        for i in range(3):
            self.bdf[i].initialize(
                [self.exact.velocity(coords, t)[:, i] for t in times]
            )
        self.pressure = self.exact.pressure(coords, times[-1])
        self.t = times[-1]

        # Incremental hot-path state: the merged momentum-operator
        # pattern, its Dirichlet plan, the (constant) pinned pressure
        # operator, and reusable preconditioners — all built on the
        # first step and refreshed in place afterwards.
        self._momentum_composite: CompositeOperator | None = None
        self._momentum_combined: sp.csr_matrix | None = None
        self._momentum_plan: DirichletPlan | None = None
        self._momentum_precond = None
        self._phi_op: sp.csr_matrix | None = None
        self._pressure_precond = None

    # -- helpers --------------------------------------------------------------

    def _advecting_field_at_quad(self) -> np.ndarray:
        """The extrapolated velocity evaluated at quadrature points."""
        comps = [self.bdf[i].extrapolate() for i in range(3)]
        stacked = np.column_stack(comps)  # (ndofs, 3)
        return evaluate_at_quad(self.dofmap, stacked, self.rule)  # (nc, nq, 3)

    def _assemble_momentum(
        self, t_new: float
    ) -> tuple[sp.csr_matrix, list[np.ndarray], np.ndarray]:
        """Assemble the constrained momentum operator and the 3 RHS vectors.

        Only the advection block changes between steps, so the merged
        sparsity of (a0/dt)M + nu K + C is cached and refilled in place;
        and since the row-replacement Dirichlet constraint does not
        depend on the boundary *values*, the three velocity components
        share ONE constrained operator instead of three copies.
        """
        alpha0 = self.bdf[0].alpha0
        dt = self.problem.dt
        dm = self.dofmap
        beta_quad = self._advecting_field_at_quad()
        advection = assemble_advection(dm, beta_quad, rule=self.rule)
        if self._momentum_composite is None:
            self._momentum_composite = CompositeOperator(
                {"mass": self.mass, "stiffness": self.stiffness, "advection": advection}
            )
        else:
            self._momentum_composite.update_component("advection", advection)
        self._momentum_combined = self._momentum_composite.combine(
            {"mass": alpha0 / dt, "stiffness": self.problem.nu, "advection": 1.0},
            out=self._momentum_combined,
        )
        momentum_op = self._momentum_combined
        if self._momentum_plan is None:
            self._momentum_plan = DirichletPlan(
                momentum_op, self.boundary, symmetric=False
            )
        self._momentum_plan.constrain_matrix(momentum_op)

        exact_velocity_new = self.exact.velocity(dm.dof_coords, t_new)
        momentum_rhs = []
        for i in range(3):
            rhs = self.mass @ (self.bdf[i].history_rhs() / dt)
            rhs = rhs - self.grad_ops[i] @ self.pressure
            self._momentum_plan.set_rhs(rhs, exact_velocity_new[self.boundary, i])
            momentum_rhs.append(rhs)
        return momentum_op, momentum_rhs, exact_velocity_new

    def _refresh_momentum_preconditioner(self, matrix: sp.csr_matrix):
        """Reuse the momentum preconditioner's symbolic structure."""
        if self._momentum_precond is not None and hasattr(
            self._momentum_precond, "update"
        ):
            try:
                return self._momentum_precond.update(matrix)
            except SolverError:
                pass  # pattern changed: fall through to a full rebuild
        self._momentum_precond = make_preconditioner(self.preconditioner_name, matrix)
        return self._momentum_precond

    def _phi_system(self, divergence: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray]:
        """The (constant) pinned pressure-Poisson operator and fresh RHS."""
        alpha0 = self.bdf[0].alpha0
        phi_rhs = -(alpha0 / self.problem.dt) * divergence
        if self._phi_op is None:
            self._phi_op, phi_rhs = pin_dof(self.stiffness, phi_rhs, dof=0, value=0.0)
        else:
            # pin_dof with value 0 only zeroes the pinned RHS entry; the
            # operator itself never changes between steps.
            phi_rhs[0] = 0.0
        return self._phi_op, phi_rhs

    def _projection_system(
        self, rhs: np.ndarray, values: np.ndarray
    ) -> tuple[sp.csr_matrix, np.ndarray]:
        """Mass-projection system using the pre-constrained mass operator.

        Symmetric elimination of the constant mass matrix: the operator
        (``mass_bc``) was constrained once at setup; only the RHS
        lifting depends on the step's boundary values.
        """
        rhs = rhs + lift_dirichlet_rhs(self.mass, self.boundary, values)
        rhs[self.boundary] = values
        return self.mass_bc, rhs

    def step(self) -> IterationPhases:
        """Advance one projection step, timing the paper's three phases."""
        # -- (ii) assembly: the time-dependent operator ---------------------
        with self.clock.phase("assembly"):
            system = self._assemble_momentum(self.t + self.problem.dt)

        # -- (iiia) preconditioner -------------------------------------------
        with self.clock.phase("preconditioner"):
            momentum_precond = self._refresh_momentum_preconditioner(system[0])

        # -- (iiib) solves ------------------------------------------------------
        def solve(role, op, rhs, x0):
            if role == "momentum":
                result = bicgstab(
                    op, rhs, x0=x0, preconditioner=momentum_precond,
                    tol=self.tol, maxiter=5000, strict=True,
                )
            elif role == "phi":
                if self._pressure_precond is None:
                    self._pressure_precond = make_preconditioner(
                        self.preconditioner_name, op
                    )
                result = cg(
                    op, rhs, preconditioner=self._pressure_precond,
                    tol=self.tol, maxiter=5000, strict=True,
                )
            else:
                result = cg(op, rhs, x0=x0, tol=self.tol, maxiter=2000, strict=True)
            return result.x, result

        with self.clock.phase("solve"):
            self._project(system, solve)
        phases = self.clock.finish_iteration()
        self.log.append(phases)
        return phases

    def _project(self, system, solve) -> tuple[SolveResult, ...]:
        """The step's seven linear solves, then the advance to ``t + dt``.

        ``system`` is :meth:`_assemble_momentum`'s output; ``solve(role,
        op, rhs, x0)`` returns ``(global solution, SolveResult)`` for
        ``role`` ``"momentum"`` (three nonsymmetric solves), ``"phi"``
        (the pressure increment) or ``"mass"`` (three projections).
        Returns the results in that order.
        """
        momentum_op, momentum_rhs, exact_velocity_new = system
        dt = self.problem.dt
        alpha0 = self.bdf[0].alpha0
        u_star, momentum = zip(*(
            solve("momentum", momentum_op, momentum_rhs[i], self.bdf[i].latest())
            for i in range(3)
        ))
        divergence = sum(self.grad_ops[i] @ u_star[i] for i in range(3))
        phi, phi_result = solve("phi", *self._phi_system(divergence), None)
        u_new, projections = [], []
        for i in range(3):
            rhs = self.mass @ u_star[i] - (dt / alpha0) * (self.grad_ops[i] @ phi)
            # Proper symmetric elimination: the boundary-column part of
            # the mass matrix must be lifted into the RHS, or the
            # projection pollutes the first interior layer.
            op_i, rhs_i = self._projection_system(
                rhs, exact_velocity_new[self.boundary, i]
            )
            u_i, result = solve("mass", op_i, rhs_i, u_star[i])
            u_new.append(u_i)
            projections.append(result)

        pressure = self.pressure + phi
        if self.rotational:
            # Rotational form: subtract nu * div(u*) (as an L2-projected
            # nodal field) from the pressure update.
            div_result = cg(
                self.mass, divergence, tol=self.tol, maxiter=2000, strict=True
            )
            pressure = pressure - self.problem.nu * div_result.x
        self.momentum_iterations.extend(result.iterations for result in momentum)
        self.pressure_iterations.append(phi_result.iterations)
        for bdf, component in zip(self.bdf, u_new):
            bdf.advance(component)
        self.pressure = pressure
        self.t = self.t + dt
        self.steps_taken += 1
        return (*momentum, phi_result, *projections)

    def run(self) -> PhaseLog:
        """Run all steps; returns the phase log."""
        for _ in range(self.problem.num_steps):
            self.step()
        return self.log

    # -- restart --------------------------------------------------------------

    def state(self) -> SolverState:
        """The restart state: the three velocity BDF histories, then the
        pressure; clock and iteration counters."""
        return SolverState(
            fields=[*(s for bdf in self.bdf for s in bdf.history), self.pressure],
            t=self.t,
            step=self.steps_taken,
            counters={
                "momentum_iterations": list(self.momentum_iterations),
                "pressure_iterations": list(self.pressure_iterations),
            },
        )

    def restore(self, state: SolverState) -> None:
        """Continue from ``state``; the inverse of :meth:`state`."""
        order = self.problem.bdf_order
        for comp, bdf in enumerate(self.bdf):
            bdf.initialize(state.fields[comp * order : (comp + 1) * order][::-1])
        self.pressure = state.fields[3 * order]
        self.t = state.t
        self.steps_taken = state.step
        self.momentum_iterations = list(state.counters.get("momentum_iterations", []))
        self.pressure_iterations = list(state.counters.get("pressure_iterations", []))

    # -- correctness --------------------------------------------------------

    @property
    def velocity(self) -> np.ndarray:
        """Current velocity field, shape (ndofs, 3)."""
        return np.column_stack([self.bdf[i].latest() for i in range(3)])

    @property
    def solution(self) -> np.ndarray:
        """Velocity components and pressure as columns, shape (ndofs, 4)."""
        return np.column_stack([self.velocity, self.pressure])

    def nodal_error(self) -> float:
        """Max nodal deviation of the velocity from Ethier-Steinman at time t."""
        exact = self.exact.velocity(self.dofmap.dof_coords, self.t)
        return float(np.max(np.abs(self.velocity - exact)))

    def velocity_error(self) -> float:
        """L2 error of the velocity against Ethier-Steinman at time t."""
        comps = [self.bdf[i].latest() for i in range(3)]
        return vector_l2_error(
            self.dofmap, comps, lambda p: self.exact.velocity(p, self.t)
        )

    def pressure_error(self) -> float:
        """L2 error of the pressure, computed modulo constants.

        The projection scheme determines the pressure up to an additive
        constant (pure Neumann increments); both fields are mean-shifted
        before comparison.
        """
        coords = self.dofmap.dof_coords
        exact_p = self.exact.pressure(coords, self.t)
        mass_row = np.asarray(self.mass.sum(axis=1)).ravel()
        volume = mass_row.sum()
        shift_h = (mass_row @ self.pressure) / volume
        shift_e = (mass_row @ exact_p) / volume
        diff = (self.pressure - shift_h) - (exact_p - shift_e)
        return float(np.sqrt(max(diff @ (self.mass @ diff), 0.0)))

    def divergence_norm(self) -> float:
        """Weak divergence residual of the current velocity."""
        div = sum(
            self.grad_ops[i] @ self.bdf[i].latest() for i in range(3)
        )
        return float(np.linalg.norm(div))


# ---------------------------------------------------------------------------
# Distributed execution over simmpi
# ---------------------------------------------------------------------------


class DistributedNSStep(DistributedStep):
    """The one distributed NS time step, in the paper's three phases.

    The :class:`NSSolver` owns the replicated state and the momentum
    assembly, which every rank repeats (deterministic) and which is the
    one charged phase.  All seven linear solves of
    :meth:`NSSolver._project` run distributed, unpreconditioned — three
    BiCGStab momentum solves, then the pressure-Poisson and three mass
    projections through :func:`dist_cg_fused` — so their traffic
    accrues through the network model.  The momentum operator's values
    are refreshed in place each step; the other two operators are
    constant, so each role's :class:`DistMatrix` is built once.
    """

    PROBLEM = NSProblem
    TOL = 1e-10

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # One DistMatrix per operator role: "momentum" is refreshed in
        # place each step; "phi" and "mass" are step-invariant.
        self._dist: dict[str, DistMatrix] = {}
        self._system = None

    def make_solver(self, problem: NSProblem, tol: float) -> NSSolver:
        """An :class:`NSSolver` (its own preconditioners stay unused)."""
        return NSSolver(problem, tol=tol)

    def assemble(self) -> None:
        """Assemble the momentum system at ``t + dt``; refresh its
        distributed values (data only, no communication)."""
        solver = self.solver
        self._system = solver._assemble_momentum(solver.t + solver.problem.dt)
        if "momentum" in self._dist:
            self._dist["momentum"].update_values(self._system[0])

    def precondition(self) -> None:
        """Nothing global to build (see the class docstring)."""

    def solve(self) -> tuple[SolveResult, ...]:
        """Momentum, pressure increment and projection; then advance."""
        return self.solver._project(self._system, self._solve)

    def _solve(self, role, op, rhs, x0):
        dist = self._dist.get(role)
        if dist is None:
            # The collective structure exchange happens once per role.
            dist = self._dist[role] = DistMatrix.from_global(
                self.comm, op, ownership=self.ownership, numbering=self.numbering
            )
        symmetric = role != "momentum"
        result = (dist_cg_fused if symmetric else dist_bicgstab)(
            dist,
            dist.vector_from_global(rhs),
            x0=None if x0 is None else dist.vector_from_global(x0),
            tol=self.tol,
            maxiter=5000,
        )
        if not result.converged:
            raise ReproError(
                f"distributed {'CG' if symmetric else 'BiCGStab'} stalled at "
                f"residual {result.residual_norm:.3e}"
            )
        return dist.allgather_global(result.x), result


def run_ns_distributed(
    comm,
    problem: NSProblem,
    tol: float = 1e-10,
    cpu_speed_factor: float = 1.0,
    discard: int = 2,
    compute_charger=None,
):
    """SPMD Navier-Stokes over simmpi: executed numerics, virtual phases.

    The same time loop as :func:`repro.apps.reaction_diffusion.run_rd_distributed`
    (:meth:`~repro.apps.stepping.DistributedStep.run`) around a
    :class:`DistributedNSStep`, which charges its assembly phase only.
    ``compute_charger`` — optional ``(phase, measured_seconds) ->
    virtual_seconds`` callable replacing the wall-clock charge with a
    deterministic model (:class:`repro.perfmodel.compute.ModeledCompute`), the
    prerequisite for bit-exact schedule replay (``docs/replay.md``);
    ``cpu_speed_factor`` is ignored when set.

    Returns ``(velocity_error, pressure_error, PhaseLog)`` per rank.
    """
    step = DistributedNSStep(comm, problem, tol)
    log = step.run(problem.num_steps, cpu_speed_factor, compute_charger, discard)
    return step.solver.velocity_error(), step.solver.pressure_error(), log
