"""Shared fixtures for the replay test package.

The exact-match gate runs the same tiny problems over (app x ranks x
platform x engine); captures and full simulations are memoized at
module scope so each expensive run happens once per test session.
Rank mains live here at module level so the threaded and event engines
see identical callables.
"""

from __future__ import annotations

import functools

from repro.apps.navier_stokes import NSProblem, run_ns_distributed
from repro.apps.reaction_diffusion import RDProblem, run_rd_distributed
from repro.perfmodel.compute import ns_modeled_compute, rd_modeled_compute
from repro.platforms.catalog import platform_by_name
from repro.simmpi.launcher import default_topology, run_spmd

PLATFORMS = ("puma", "ellipse", "lagrange", "ec2")
RANK_COUNTS = (2, 4, 8, 27)
TOL = 1e-8

#: RD is order 2: mesh (2, 2, 13) gives 27 z-planes of DOFs, so the
#: slab decomposition supports every rank count up to 27.
RD_MESH = (2, 2, 13)
#: NS assembles an order-1 dofmap: (2, 2, 26) gives the same 27 planes.
NS_MESH = (2, 2, 26)


def rd_problem() -> RDProblem:
    return RDProblem(mesh_shape=RD_MESH, num_steps=1)


def ns_problem() -> NSProblem:
    return NSProblem(mesh_shape=NS_MESH, num_steps=1)


def _rd_rank(comm, problem, charger):
    run_rd_distributed(comm, problem, tol=TOL, discard=0, compute_charger=charger)


def _ns_rank(comm, problem, charger):
    run_ns_distributed(comm, problem, tol=TOL, discard=0, compute_charger=charger)


_APPS = {
    "rd": (rd_problem, _rd_rank, rd_modeled_compute),
    "ns": (ns_problem, _ns_rank, ns_modeled_compute),
}


def platform_topology(name: str, num_ranks: int):
    """The named platform's topology sized for ``num_ranks``."""
    spec = platform_by_name(name)
    if spec.on_demand:
        return spec.topology(num_nodes=spec.nodes_for_ranks(num_ranks))
    return spec.topology()


@functools.lru_cache(maxsize=None)
def capture(app: str, num_ranks: int, engine: str = "events"):
    """One recorded capture per (app, p): unit-rate modeled compute."""
    problem_fn, rank_main, modeled = _APPS[app]
    problem = problem_fn()
    result = run_spmd(
        rank_main,
        num_ranks,
        topology=default_topology(num_ranks),
        args=(problem, modeled(problem, num_ranks, rate=1.0)),
        record_schedule=True,
        real_timeout=300.0,
        engine=engine,
    )
    assert result.recording is not None
    return result.recording


@functools.lru_cache(maxsize=None)
def full_sim(app: str, num_ranks: int, platform: str):
    """One full simulation per (app, p, platform), on the events engine."""
    problem_fn, rank_main, modeled = _APPS[app]
    problem = problem_fn()
    spec = platform_by_name(platform)
    return run_spmd(
        rank_main,
        num_ranks,
        topology=platform_topology(platform, num_ranks),
        args=(problem, modeled(problem, num_ranks, rate=spec.core_flops())),
        real_timeout=300.0,
    )
