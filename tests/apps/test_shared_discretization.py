"""One discretization per launch: built once, shared read-only, not retained.

Everything here fails on a *count* (builds per launch, live registry
entries, traced bytes), never on a stopwatch.
"""

import gc
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

from repro.apps import navier_stokes, reaction_diffusion, shared
from repro.apps.navier_stokes import NSProblem, NSSolver, run_ns_distributed
from repro.apps.reaction_diffusion import RDProblem, RDSolver, run_rd_distributed
from repro.fem.assembly import CompositeOperator
from repro.simmpi.launcher import run_spmd

ENGINES = ["events", "threads"]
NUM_RANKS = 8
RD = RDProblem(mesh_shape=(2, 2, 4), num_steps=2)
NS = NSProblem(mesh_shape=(3, 3, 7), num_steps=2)


@pytest.fixture
def builds(monkeypatch):
    """Calls of each step-invariant operator build, by name."""
    calls: dict[str, int] = {}

    def counting(name, fn, counts=lambda *args: True):
        def wrapper(*args, **kwargs):
            if counts(*args):
                calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (reaction_diffusion, navier_stokes):
        for name in ("assemble_mass", "assemble_stiffness"):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.setattr(
        reaction_diffusion, "assemble_load",
        counting("assemble_load", reaction_diffusion.assemble_load),
    )
    monkeypatch.setattr(
        CompositeOperator, "__init__",
        counting("CompositeOperator", CompositeOperator.__init__),
    )
    # The three gradient operators advect with a constant unit vector;
    # the per-step advection matrix (per rank, charged) gets quad values.
    monkeypatch.setattr(
        navier_stokes, "assemble_advection",
        counting("grad_op", navier_stokes.assemble_advection,
                 counts=lambda dofmap, velocity, *rest: np.shape(velocity) == (3,)),
    )
    monkeypatch.setattr(
        navier_stokes, "constrain_operator",
        counting("mass_bc", navier_stokes.constrain_operator),
    )
    return calls


def rd_main(comm, problem=RD):
    return run_rd_distributed(comm, problem, discard=0)


def ns_main(comm, problem=NS):
    return run_ns_distributed(comm, problem, discard=0)


def live_entries() -> int:
    gc.collect()
    return len(shared._live)


RD_BUILDS = {"assemble_mass": 1, "assemble_stiffness": 1, "assemble_load": 1,
             "CompositeOperator": 1}


class TestBuiltOncePerLaunch:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_rd_operators_built_once_for_eight_ranks(self, builds, engine):
        run_spmd(rd_main, NUM_RANKS, engine=engine, real_timeout=120.0)
        assert builds == RD_BUILDS

    @pytest.mark.parametrize("engine", ENGINES)
    def test_ns_operators_built_once_for_eight_ranks(self, builds, engine):
        run_spmd(ns_main, NUM_RANKS, engine=engine, real_timeout=180.0)
        # The per-rank momentum composite is built in the first (charged)
        # assembly phase: one per rank, by design.
        assert builds == {"assemble_mass": 1, "assemble_stiffness": 1, "grad_op": 3,
                          "mass_bc": 1, "CompositeOperator": NUM_RANKS}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_nothing_outlives_the_launch(self, builds, engine):
        assert live_entries() == 0
        run_spmd(rd_main, NUM_RANKS, engine=engine, real_timeout=120.0)
        assert live_entries() == 0
        run_spmd(rd_main, NUM_RANKS, engine=engine, real_timeout=120.0)
        assert builds == {name: 2 * count for name, count in RD_BUILDS.items()}
        assert live_entries() == 0

    def test_full_assembly_mode_builds_no_stiffness_or_composite(self, builds):
        solver = RDSolver(RD, assembly_mode="full")
        assert builds == {"assemble_mass": 1, "assemble_load": 1}
        assert solver._composite is None


class TestWhatIsShared:
    def test_problems_differing_in_dt_share_operators_not_history(self):
        a = RDSolver(RD, assembly_mode="combine")
        b = RDSolver(RDProblem(mesh_shape=RD.mesh_shape, num_steps=5, dt=0.04, t0=1.5),
                     assembly_mode="combine")
        assert a._operators is b._operators
        assert a._mass is b._mass and a._composite is b._composite
        assert a.dofmap is b.dofmap
        assert a.bdf is not b.bdf
        assert not np.array_equal(a.bdf.latest(), b.bdf.latest())
        a.run()
        b.run()
        assert a._rows.matrix is not b._rows.matrix
        assert a.nodal_error() < 1e-9 and b.nodal_error() < 1e-9

    @pytest.mark.parametrize(
        "other",
        [RDProblem(mesh_shape=(2, 2, 3), num_steps=2),
         RDProblem(mesh_shape=RD.mesh_shape, order=1, num_steps=2)],
        ids=["mesh_shape", "order"],
    )
    def test_problems_differing_in_discretization_share_nothing(self, other):
        a = RDSolver(RD, assembly_mode="combine")
        b = RDSolver(other, assembly_mode="combine")
        assert a._operators is not b._operators
        assert a.dofmap is not b.dofmap and a._mass is not b._mass
        assert live_entries() == 2

    def test_ns_solvers_share_operators_not_state(self):
        a = NSSolver(NS)
        b = NSSolver(NSProblem(mesh_shape=NS.mesh_shape, dt=0.001, num_steps=2))
        assert a._operators is b._operators
        assert a.mass is b.mass and a.mass_bc is b.mass_bc
        assert all(x is y for x, y in zip(a.grad_ops, b.grad_ops))
        a.step()
        # The momentum composite takes per-step advection values: per solver.
        assert a._momentum_composite is not None and b._momentum_composite is None
        assert NSSolver(NSProblem(mesh_shape=(3, 3, 6)))._operators is not a._operators

    def test_entry_dies_with_its_last_holder(self):
        a = RDSolver(RD, assembly_mode="combine")
        b = RDSolver(RD, assembly_mode="combine")
        assert live_entries() == 1
        del a
        assert live_entries() == 1
        del b
        assert live_entries() == 0


def reachable_arrays(obj, seen=None):
    """Every ndarray reachable from ``obj`` through attributes and
    containers (an independent walk: stops at code, not at packages)."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(
        obj, (type, types.ModuleType, types.FunctionType, types.MethodType, str, bytes)
    ):
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        children = [obj.base]
    elif isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (tuple, list, set, frozenset)):
        children = list(obj)
    else:
        children = list(getattr(obj, "__dict__", {}).values())
    for child in children:
        yield from reachable_arrays(child, seen)


class TestSharedMeansImmutable:
    @pytest.mark.parametrize(
        "solver_factory",
        [lambda: RDSolver(RD, assembly_mode="combine"),
         lambda: RDSolver(RD, assembly_mode="full"),
         lambda: NSSolver(NS)],
        ids=["rd-combine", "rd-full", "ns"],
    )
    def test_every_reachable_array_is_read_only(self, solver_factory):
        solver = solver_factory()
        solver.run()  # lazy values a run touches are in the bundle by now
        arrays = list(reachable_arrays(solver._operators))
        assert len(arrays) > 10
        assert all(not a.flags.writeable for a in arrays)

    def test_in_place_writes_raise(self):
        solver = RDSolver(RD, assembly_mode="combine")
        for array in (solver._mass.data, solver._mass.indices, solver._load,
                      solver.dofmap.dof_coords, solver.dofmap.boundary_dofs,
                      solver.dofmap.scatter_indices[0]):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_shared_solvers_step_like_a_lone_solver(self):
        lone = RDSolver(RD, assembly_mode="combine")
        lone.run()
        expected = lone.solution.copy()
        del lone
        assert live_entries() == 0
        pair = [RDSolver(RD, assembly_mode="combine") for _ in range(2)]
        for _ in range(RD.num_steps):  # interleaved: one composite, two outputs
            for solver in pair:
                solver.step()
        for solver in pair:
            assert np.array_equal(solver.solution, expected)


def test_concurrent_construction_and_stepping_stress(builds):
    """More threads than cores construct a solver on one problem at once
    and step it concurrently: one build, one bundle, and every thread's
    trajectory is the lone solver's bit for bit (a shared scratch buffer
    in ``combine`` or a half-built bundle would break that)."""
    lone = RDSolver(RD, assembly_mode="combine")
    lone.run()
    expected = lone.solution.copy()
    del lone
    assert live_entries() == 0
    builds.clear()

    workers = 8
    barrier = threading.Barrier(workers)
    bundles, solutions, errors = [], [], []

    def work():
        try:
            barrier.wait(timeout=30.0)
            solver = RDSolver(RD, assembly_mode="combine")
            bundles.append(solver._operators)
            barrier.wait(timeout=30.0)
            solver.run()
            solutions.append(solver.solution)
        except BaseException as exc:  # reported by the assertions below
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert builds == RD_BUILDS
    assert len(bundles) == workers and all(b is bundles[0] for b in bundles)
    assert len(solutions) == workers
    assert all(np.array_equal(s, expected) for s in solutions)


@pytest.mark.parametrize("engine", ENGINES)
def test_traced_memory_of_eight_ranks_is_not_eight_solvers(engine):
    """tracemalloc peak of a p = 8 launch stays under 3x the p = 1
    launch of the same problem: about 2x here, 5-6x when every rank
    builds its own global operators.  Element-wise Jacobi, because the
    ILU(0) schedule of the undivided p = 1 block would dominate the
    baseline and hide the operators."""
    problem = RDProblem(mesh_shape=(3, 3, 4), num_steps=1)

    def main(comm):
        return run_rd_distributed(comm, problem, preconditioner="jacobi", discard=0)

    def peak(num_ranks):
        gc.collect()
        tracemalloc.start()
        try:
            run_spmd(main, num_ranks, engine=engine, real_timeout=300.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # imports and first-use caches are not the launch's memory
    one, eight = peak(1), peak(NUM_RANKS)
    assert eight < 3 * one
