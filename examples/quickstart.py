"""Quickstart: solve the paper's RD problem and broker the four platforms.

Runs the real FEM solver (Q2 elements + BDF2 on the manufactured
solution), verifies correctness the way the paper did, then asks the
assembly broker where the paper-sized job should run: every platform
(and the §VII.D spot mix) priced with its porting effort, queue wait,
compute time and dollars, ranked best-first.

Run:  python examples/quickstart.py
"""

from repro.apps.reaction_diffusion import RDProblem, RDSolver
from repro.broker import BrokerRequest, broker_assemblies, render_broker_report


def main() -> None:
    # -- 1. the numerics: solve and verify -------------------------------
    print("Solving du/dt - (1/t^2) lap(u) - (2/t) u = -6 with Q2 + BDF2 ...")
    problem = RDProblem(mesh_shape=(8, 8, 8), dt=0.05, t0=1.0, num_steps=8)
    solver = RDSolver(problem, preconditioner="jacobi", discard=2)
    solver.run()
    print(f"  mesh: {problem.mesh_shape} elements, {solver.dofmap.num_dofs} Q2 dofs")
    print(f"  max nodal error vs exact solution: {solver.nodal_error():.2e}")
    print(f"  (the manufactured solution is reproduced to solver tolerance,")
    print(f"   which is the correctness check the paper ran on every platform)")
    avg = solver.log.averages()
    print(
        f"  phase averages: assembly {avg.assembly * 1e3:.1f} ms | "
        f"preconditioner {avg.preconditioner * 1e3:.2f} ms | "
        f"solve {avg.solve * 1e3:.1f} ms"
    )

    # -- 2. the platforms: broker the paper-sized job ---------------------
    print("\nBrokering the paper-sized workload (20^3 elements/process, 64 ranks):")
    report = broker_assemblies(BrokerRequest(app="rd", num_ranks=64))
    print(render_broker_report(report))
    print("\nlaunch lines:")
    for plan in report.plans:
        print(f"  {plan.name}: {plan.launch_command}")

if __name__ == "__main__":
    main()
