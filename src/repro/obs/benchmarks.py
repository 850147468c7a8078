"""Kernel measurements behind ``BENCH_kernels.json``.

These are the library-side bodies of ``benchmarks/bench_kernels.py`` —
importable under ``PYTHONPATH=src`` so the bench gate
(:mod:`repro.obs.gate`) can re-run them at the baseline's recorded
configurations and compare.  Three measurements:

* :func:`measure_rd_step_paths` — seed vs incremental per-step RD
  assembly+preconditioner cost (the PR2 hot path);
* :func:`measure_dist_cg_rounds` — allreduce rounds of classic vs fused
  distributed CG (deterministic counts from the simulator);
* :func:`measure_rd_phases` — a small distributed RD run under full
  observability: the paper's per-phase means (virtual time), collective
  counts, and the critical-path bound;
* :func:`measure_collectives` — adaptive vs fixed-algorithm allreduce
  on a modeled 1 GbE cluster: off-node bytes, virtual time, and the
  algorithms the selector chose, plus the selection tables for the
  paper's platforms;
* :func:`measure_engine_throughput` — ranks-per-second of the
  event-driven vs threaded simmpi engines at the paper's rank counts,
  the executed weak-scaling sweep over the full Fig. 4–7 rank series
  (p = 1 ... 1000), and a p = 4096 collective micro-run contrasting the
  1 GbE and InfiniBand interconnect models at saturation;
* :func:`measure_service` — the broker-as-a-service layer under 64
  concurrent HTTP clients: request coalescing onto one computation,
  bit-identical results to every tenant, admission latency, jobs/sec,
  and a typed quota denial;
* :func:`measure_elasticity` — the malleable shrink/expand layer:
  repartition latency per target width, byte-identical trajectories
  across the width change, and the elastic broker's realized cost
  against both static baselines on the volatile-market scenario.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[3]

PHASE_NAMES = ("assembly", "preconditioner", "solve")


def measure_rd_step_paths(mesh_shape=(8, 8, 8), num_steps=10, preconditioner="jacobi"):
    """Per-step assembly+preconditioner cost: seed path vs incremental.

    The seed's combine mode paid, every step: a scipy pattern-union add
    for ``a(t) M + b(t) K``, two sparse products inside
    :func:`~repro.fem.boundary.apply_dirichlet`, and a from-scratch
    preconditioner build.  The incremental path rewrites a cached merged
    ``data`` array, replays a precomputed Dirichlet plan, and refreshes
    the preconditioner numerically.  Both paths produce the same
    operator; the returned dict records wall seconds and the speedup.
    """
    from repro.apps.reaction_diffusion import RDProblem, RDSolver
    from repro.fem.assembly import CompositeOperator
    from repro.fem.boundary import DirichletPlan, apply_dirichlet
    from repro.la.preconditioners import make_preconditioner

    problem = RDProblem(mesh_shape=mesh_shape, num_steps=num_steps)
    solver = RDSolver(problem, assembly_mode="combine")
    mass = solver._mass.tocsr()
    stiffness = solver._stiffness.tocsr()
    boundary = solver.dofmap.boundary_dofs
    rhs = np.ones(solver.dofmap.num_dofs)
    dt = problem.dt
    alpha0 = solver.bdf.alpha0
    step_times = [solver.t + (k + 1) * dt for k in range(num_steps)]

    def coefficients(t_new):
        return alpha0 / dt - 2.0 / t_new, 1.0 / t_new**2

    # -- seed path: full pattern work + fresh preconditioner every step --
    def seed_step(t_new):
        a, b = coefficients(t_new)
        matrix = (a * mass + b * stiffness).tocsr()
        constrained, _ = apply_dirichlet(matrix, rhs, boundary, 0.0)
        make_preconditioner(preconditioner, constrained)

    # -- incremental path: data-only combine + plan replay + update ------
    composite = CompositeOperator({"mass": mass, "stiffness": stiffness})
    state = {"combined": None, "plan": None, "precond": None}

    def incremental_step(t_new):
        a, b = coefficients(t_new)
        state["combined"] = composite.combine(
            {"mass": a, "stiffness": b}, out=state["combined"]
        )
        if state["plan"] is None:
            state["plan"] = DirichletPlan(
                state["combined"], boundary, symmetric=True
            )
        matrix, _ = state["plan"].apply(state["combined"], rhs, 0.0)
        if state["precond"] is None:
            state["precond"] = make_preconditioner(preconditioner, matrix)
        else:
            state["precond"].update(matrix)

    # One un-timed warm-up step per path: the incremental path builds
    # its one-time caches there, so the timed region is the per-step
    # steady state the time loop actually pays.
    seed_step(solver.t)
    incremental_step(solver.t)

    start = time.perf_counter()
    for t_new in step_times:
        seed_step(t_new)
    seed_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for t_new in step_times:
        incremental_step(t_new)
    incremental_seconds = time.perf_counter() - start

    return {
        "mesh_shape": list(mesh_shape),
        "num_steps": num_steps,
        "preconditioner": preconditioner,
        "dofs": int(solver.dofmap.num_dofs),
        "seed_seconds": seed_seconds,
        "incremental_seconds": incremental_seconds,
        "speedup": seed_seconds / incremental_seconds,
    }


def measure_dist_cg_rounds(mesh_shape=(5, 5, 5), num_ranks=4, tol=1e-12):
    """Allreduce rounds of classic vs fused distributed CG.

    Counted from the simulator's per-communicator collective counters —
    actual traffic, not solver bookkeeping — together with the solution
    agreement between the two recurrences.
    """
    from repro.fem.assembly import assemble_mass, assemble_stiffness
    from repro.fem.boundary import apply_dirichlet
    from repro.fem.dofmap import DofMap
    from repro.fem.mesh import StructuredBoxMesh
    from repro.la.distributed import DistMatrix, DistVector, dist_cg, dist_cg_fused
    from repro.simmpi import run_spmd

    dm = DofMap(StructuredBoxMesh(mesh_shape), 1)
    k = assemble_stiffness(dm) + assemble_mass(dm)
    a, b = apply_dirichlet(k.tocsr(), np.ones(dm.num_dofs), dm.boundary_dofs, 0.0)
    a = a.tocsr()

    def main(comm):
        dist = DistMatrix.from_global(comm, a)
        rhs = dist.vector_from_global(b)
        before = comm.collective_counts["allreduce"]
        classic = dist_cg(dist, rhs, tol=tol, maxiter=2000)
        classic_rounds = comm.collective_counts["allreduce"] - before
        before = comm.collective_counts["allreduce"]
        fused = dist_cg_fused(dist, rhs, tol=tol, maxiter=2000)
        fused_rounds = comm.collective_counts["allreduce"] - before
        xc = dist.gather_global(
            DistVector(comm, classic.x, dist.ghost_indices.size), root=0
        )
        xf = dist.gather_global(
            DistVector(comm, fused.x, dist.ghost_indices.size), root=0
        )
        if comm.rank == 0:
            return {
                "classic_iterations": classic.iterations,
                "classic_rounds": classic_rounds,
                "fused_iterations": fused.iterations,
                "fused_rounds": fused_rounds,
                "fused_bookkeeping_rounds": fused.allreduce_rounds,
                "solution_max_diff": float(np.max(np.abs(xc - xf))),
            }
        return None

    stats = run_spmd(main, num_ranks, real_timeout=60.0).returns[0]
    stats.update(
        {
            "mesh_shape": list(mesh_shape),
            "num_ranks": num_ranks,
            "rounds_ratio": stats["classic_rounds"] / stats["fused_rounds"],
            "fused_rounds_per_iteration": (
                (stats["fused_rounds"] - 2) / stats["fused_iterations"]
            ),
        }
    )
    return stats


def measure_rd_phases(
    mesh_shape=(6, 6, 6), num_ranks=2, num_steps=8, discard=5,
    preconditioner="block-jacobi",
):
    """Distributed RD under full observability: the paper's measurements.

    Runs the SPMD RD loop with an :class:`~repro.obs.Observability` hub
    attached and reduces the span tree with
    :func:`~repro.obs.analysis.phase_statistics` (the merged row: max
    over ranks per iteration, discard, average).  Phase means are
    virtual-time seconds; the collective counts are deterministic for a
    fixed configuration, which is what makes them gateable.
    """
    from repro.apps.reaction_diffusion import RDProblem, run_rd_distributed
    from repro.obs.analysis import critical_path, phase_statistics
    from repro.obs.core import Observability, ObsConfig
    from repro.simmpi import run_spmd

    obs = Observability(ObsConfig(discard=discard))
    problem = RDProblem(mesh_shape=mesh_shape, num_steps=num_steps)

    def main(comm):
        return run_rd_distributed(
            comm, problem, preconditioner=preconditioner, discard=discard,
            obs=obs,
        )

    result = run_spmd(main, num_ranks, observability=obs, real_timeout=120.0)
    obs.check_balanced()
    _, _, nodal_error = result.returns[0]
    merged = phase_statistics(obs, discard=discard)[None]
    path = critical_path(obs)
    bound_rank, bound_phase = max(
        path.time_by_rank_phase().items(), key=lambda kv: kv[1]
    )[0]
    return {
        "mesh_shape": list(mesh_shape),
        "num_ranks": num_ranks,
        "num_steps": num_steps,
        "discard": discard,
        "preconditioner": preconditioner,
        "phase_means": {p: merged[p].mean for p in PHASE_NAMES},
        "collective_counts": obs.tracer.collective_counts_by_label(rank=0),
        "nodal_error": nodal_error,
        "critical_path_bound": {"rank": bound_rank, "phase": bound_phase},
    }


def measure_collectives(
    num_nodes=4, cores_per_node=4, reps=3,
    small_doubles=3, large_doubles=65536,
    table_platforms=("puma", "lagrange", "ec2"), table_ranks=64,
):
    """Adaptive vs fixed-algorithm allreduce on a modeled 1 GbE cluster.

    Runs ``reps`` allreduces per case (a small fused-CG-style payload
    and a large segmentable one) twice: pinned to the seed's recursive
    doubling, then with ``algorithm="auto"``.  Everything recorded is
    deterministic — virtual seconds, per-rank NIC bytes
    (``offnode_bytes_sent``), and the algorithms the selector resolved —
    which is what makes the ``collectives`` section gateable.  The
    headline number is ``offnode_bytes_ratio``: on fat 1 GbE nodes the
    hierarchical schedules keep all but the node leaders off the NIC, so
    total fabric bytes drop well below the flat recursive-doubling
    baseline for large messages while small messages stay on the
    latency-optimal tree.

    ``selection_table`` additionally records, per paper platform, what
    the selector would pick at ``table_ranks`` ranks across message
    sizes — the documented decision table of ``docs/collectives.md``.
    """
    from repro.network.model import GIGABIT_ETHERNET, NetworkModel
    from repro.network.topology import ClusterTopology
    from repro.platforms import platform_by_name
    from repro.simmpi import SUM, CollectiveSelector, run_spmd

    topology = ClusterTopology(num_nodes, cores_per_node, NetworkModel(GIGABIT_ETHERNET))
    num_ranks = num_nodes * cores_per_node

    def run_case(n_doubles, algorithm):
        def main(comm):
            payload = np.full(n_doubles, float(comm.rank + 1))
            t0, b0, o0 = comm.time, comm.bytes_sent, comm.offnode_bytes_sent
            for _ in range(reps):
                result = comm.allreduce(
                    payload, op=SUM, algorithm=algorithm, site="bench.collectives"
                )
            expected = num_ranks * (num_ranks + 1) / 2.0
            return {
                "seconds": comm.time - t0,
                "bytes": comm.bytes_sent - b0,
                "offnode_bytes": comm.offnode_bytes_sent - o0,
                "algorithms": dict(comm.algorithm_counts),
                "max_error": float(np.max(np.abs(np.asarray(result) - expected))),
            }

        per_rank = run_spmd(main, num_ranks, topology=topology, real_timeout=60.0).returns
        algorithms: dict[str, int] = {}
        for r in per_rank:
            for key, count in r["algorithms"].items():
                algorithms[key] = algorithms.get(key, 0) + count
        resolved = sorted(
            key.split(".", 1)[1] for key in algorithms if key.startswith("allreduce.")
        )
        return {
            "algorithm": resolved[0] if len(set(resolved)) == 1 else resolved,
            "seconds_per_call": max(r["seconds"] for r in per_rank) / reps,
            "offnode_bytes_per_call": sum(r["offnode_bytes"] for r in per_rank) / reps,
            "total_bytes_per_call": sum(r["bytes"] for r in per_rank) / reps,
            "max_error": max(r["max_error"] for r in per_rank),
        }

    cases = {}
    for name, doubles in (("small", small_doubles), ("large", large_doubles)):
        fixed = run_case(doubles, "recursive_doubling")
        adaptive = run_case(doubles, "auto")
        cases[name] = {
            "nbytes": doubles * 8,
            "fixed": fixed,
            "adaptive": adaptive,
            "offnode_bytes_ratio": (
                fixed["offnode_bytes_per_call"]
                / max(adaptive["offnode_bytes_per_call"], 1.0)
            ),
            "speedup": fixed["seconds_per_call"] / adaptive["seconds_per_call"],
        }

    selection_table = {}
    for platform_name in table_platforms:
        spec = platform_by_name(platform_name)
        nodes = spec.nodes_for_ranks(table_ranks)
        topo = spec.topology(num_nodes=nodes) if spec.on_demand else spec.topology()
        selector = CollectiveSelector(topo, table_ranks)
        selection_table[platform_name] = {
            "interconnect": spec.interconnect.name,
            "num_ranks": table_ranks,
            "rows": selector.selection_table(),
        }

    return {
        "num_nodes": num_nodes,
        "cores_per_node": cores_per_node,
        "num_ranks": num_ranks,
        "reps": reps,
        "small_doubles": small_doubles,
        "large_doubles": large_doubles,
        "interconnect": "1 GbE",
        "cases": cases,
        "table_platforms": list(table_platforms),
        "table_ranks": table_ranks,
        "selection_table": selection_table,
    }


def _sweep_step_program(comm, steps):
    """The per-rank workload of the engine benchmark: ``steps`` rounds of
    allreduce + barrier — the communication skeleton of one weak-scaling
    sweep point."""
    total = 0.0
    for k in range(steps):
        total += comm.allreduce(float(comm.rank + k))
        comm.barrier()
    return total


def measure_engine_throughput(
    rank_counts=(8, 64, 512, 1000),
    steps=3,
    sweep_max_ranks=1000,
    saturation_ranks=4096,
    saturation_doubles=8192,
):
    """Ranks-per-second of the two simmpi engines, plus the scale runs
    only the event-driven engine can execute.

    Three measurements, all on the default modeled 1 GbE cluster:

    * ``points`` — the ``steps``-round allreduce+barrier workload under
      both engines at each ``rank_counts`` entry: wall seconds,
      ``ranks_per_second`` (rank-program completions per wall second),
      and the events/threads throughput ratio.  Virtual makespans are
      recorded from both engines and must agree exactly (bit-identity on
      the benchmark path).
    * ``sweep`` — the same workload executed at every point of the
      paper's weak-scaling rank series (p = 1, 8, 27, ... 1000) under
      the event engine on one OS thread: the Fig. 4–7 axis, executed,
      with the total wall cost.
    * ``saturation`` — a ``saturation_ranks`` (default 4096) allreduce
      + barrier micro-run, events engine only, on the 1 GbE model vs
      InfiniBand 4X DDR: the virtual-time ratio shows where the slower
      interconnect model saturates while the wall cost shows the engine
      absorbing a 4096-rank collective.  The per-rank payload (64 KiB
      default) is bandwidth-dominated on both fabrics but small enough
      that 4096 live copies fit comfortably in memory.

    A note on the ratio's magnitude: the event engine's advantage over
    the threaded engine comes from eliminating OS preemption, condition
    polling, and thread-spawn storms, so it grows with core count and
    rank count.  On a single-core container the threaded engine's
    contention pathologies are muted and the measured ratio at p = 512
    is a few x (growing with p), not the order of magnitude seen on
    multi-core hosts — the gate floors are set to what a one-core
    worst case sustains.
    """
    from repro.apps.workload import paper_rank_series
    from repro.network.model import (
        GIGABIT_ETHERNET,
        INFINIBAND_4X_DDR,
        NetworkModel,
    )
    from repro.network.topology import ClusterTopology
    from repro.simmpi import run_spmd

    def timed_run(p, engine, link=GIGABIT_ETHERNET, program=None, kwargs=None):
        cores = 32
        topology = ClusterTopology(
            max(1, -(-p // cores)), cores, NetworkModel(link)
        )
        start = time.perf_counter()
        result = run_spmd(
            program if program is not None else _sweep_step_program,
            p,
            topology=topology,
            kwargs=kwargs if kwargs is not None else {"steps": steps},
            real_timeout=600.0,
            engine=engine,
        )
        wall = time.perf_counter() - start
        return {
            "wall_seconds": wall,
            "ranks_per_second": p / wall,
            "virtual_makespan": result.max_time,
        }

    points = []
    for p in rank_counts:
        events = timed_run(p, "events")
        threads = timed_run(p, "threads")
        points.append(
            {
                "num_ranks": p,
                "events": events,
                "threads": threads,
                "ratio": events["ranks_per_second"] / threads["ranks_per_second"],
                "makespans_match": (
                    events["virtual_makespan"] == threads["virtual_makespan"]
                ),
            }
        )

    sweep_series = [p for p in paper_rank_series(1000) if p <= sweep_max_ranks]
    sweep_points = [
        {"num_ranks": p, **timed_run(p, "events")} for p in sweep_series
    ]

    def saturation_program(comm, doubles):
        payload = np.full(doubles, float(comm.rank + 1))
        t0 = comm.time
        # Pinned algorithm: the contrast under test is the interconnect
        # model, and the O(log p)-round schedule keeps the wall cost of
        # a 4096-rank run in seconds (auto would pick a segmented
        # schedule whose millions of simulated messages measure the
        # selector, not the fabric).
        comm.allreduce(payload, algorithm="recursive_doubling")
        comm.barrier()
        return comm.time - t0

    saturation = {}
    for name, link in (("1gbe", GIGABIT_ETHERNET), ("infiniband", INFINIBAND_4X_DDR)):
        run = timed_run(
            saturation_ranks, "events", link=link,
            program=saturation_program, kwargs={"doubles": saturation_doubles},
        )
        saturation[name] = run

    return {
        "steps": steps,
        "rank_counts": list(rank_counts),
        "points": points,
        "sweep": {
            "rank_series": sweep_series,
            "points": sweep_points,
            "total_wall_seconds": sum(pt["wall_seconds"] for pt in sweep_points),
        },
        "saturation": {
            "num_ranks": saturation_ranks,
            "payload_doubles": saturation_doubles,
            **saturation,
            "virtual_time_ratio": (
                saturation["1gbe"]["virtual_makespan"]
                / saturation["infiniband"]["virtual_makespan"]
            ),
        },
    }


def measure_obs_overhead(num_ranks=512, steps=2, events_limit=8):
    """Wall cost of vector clocks + wait-state health at ``num_ranks``.

    Runs the engine benchmark's allreduce+barrier workload twice under
    the event engine with tracing on: once plain, once with a
    :class:`~repro.obs.causal.CausalTracker` piggybacking clocks on
    every message plus a full :func:`~repro.obs.health.run_health` pass
    over the trace afterwards.  Reports the wall-time ratio (the cost
    of turning diagnosis on) and whether the per-rank virtual clocks
    stayed **bit-identical** — stamps ride outside the payload, so they
    must.  ``events_limit`` bounds the tracker's per-rank event ring:
    the clocks stay exact and memory stays flat at p = 512 (each
    retained event snapshots a ``num_ranks``-wide vector).
    """
    from repro.network.model import GIGABIT_ETHERNET, NetworkModel
    from repro.network.topology import ClusterTopology
    from repro.obs.causal import CausalTracker
    from repro.obs.health import run_health
    from repro.simmpi import run_spmd

    cores = 32
    topology = ClusterTopology(
        max(1, -(-num_ranks // cores)), cores, NetworkModel(GIGABIT_ETHERNET)
    )

    start = time.perf_counter()
    plain = run_spmd(
        _sweep_step_program, num_ranks, topology=topology, trace=True,
        kwargs={"steps": steps}, real_timeout=600.0, engine="events",
    )
    plain_wall = time.perf_counter() - start

    tracker = CausalTracker(num_ranks, events_limit=events_limit)
    start = time.perf_counter()
    observed = run_spmd(
        _sweep_step_program, num_ranks, topology=topology, trace=True,
        kwargs={"steps": steps}, real_timeout=600.0, engine="events",
        causal=tracker,
    )
    health = run_health(observed.tracer)
    observed_wall = time.perf_counter() - start

    return {
        "num_ranks": num_ranks,
        "steps": steps,
        "events_limit": events_limit,
        "plain_wall_seconds": plain_wall,
        "observed_wall_seconds": observed_wall,
        "overhead_ratio": observed_wall / plain_wall if plain_wall > 0 else 1.0,
        "clocks_match": plain.clocks == observed.clocks,
        "makespans_match": plain.max_time == observed.max_time,
        "health_comm_seconds": health.comm_time,
        "health_wait_fraction": health.wait_fraction,
        "causal_events": tracker.dropped_events + sum(
            len(tracker.events_for(r)) for r in range(num_ranks)
        ),
    }


def measure_replay(
    mesh_shape=(6, 6, 12),
    num_ranks=8,
    num_steps=2,
    platforms=("puma", "ellipse", "lagrange", "ec2"),
):
    """Record-once/replay-per-platform vs full re-execution (the Fig. 4 shape).

    Runs the distributed RD solve with deterministic modeled compute
    (:mod:`repro.perfmodel.compute`) on every platform of the portfolio
    twice: once as a full simulation and once by replaying a single
    captured :class:`~repro.simmpi.recording.ScheduleRecording` through
    the platform's network model (``docs/replay.md``).  Reports per-
    platform wall times and two sweep-level ratios:

    * ``speedup`` — full-execution total over replay total: the cost
      of each *additional* platform once the recording exists, which
      is the steady state (the broker caches recordings on disk keyed
      by workload, so a portfolio sweep pays capture at most once,
      ever).  This is the >= 10x gate.
    * ``speedup_including_capture`` — the same sweep charged for the
      capture too (a cold cache); necessarily bounded by the platform
      count since the capture *is* one full execution.

    The headline correctness gate rides along: every replayed virtual
    makespan and per-rank clock vector must be **bit-identical** to
    its full simulation.
    """
    from repro.apps.reaction_diffusion import RDProblem
    from repro.broker.simsweep import _full_sim, _rank_main, capture_recording
    from repro.perfmodel.compute import rd_modeled_compute
    from repro.platforms.catalog import platform_by_name
    from repro.simmpi.replay import replay_schedule

    problem = RDProblem(mesh_shape=mesh_shape, num_steps=num_steps)

    start = time.perf_counter()
    recording = capture_recording(problem, num_ranks)
    record_wall = time.perf_counter() - start

    per_platform = {}
    full_total = 0.0
    replay_total = 0.0
    all_match = True
    for name in platforms:
        spec = platform_by_name(name)
        if spec.on_demand:
            topology = spec.topology(num_nodes=spec.nodes_for_ranks(num_ranks))
        else:
            topology = spec.topology()
        rate = spec.core_flops()

        start = time.perf_counter()
        full = _full_sim(problem, num_ranks, topology, rate)
        full_wall = time.perf_counter() - start

        start = time.perf_counter()
        replayed = replay_schedule(recording, topology=topology, compute_rate=rate)
        replay_wall = time.perf_counter() - start

        clocks_match = replayed.clocks == full.clocks
        makespans_match = replayed.max_time == full.max_time
        all_match = all_match and clocks_match and makespans_match
        full_total += full_wall
        replay_total += replay_wall
        per_platform[name] = {
            "full_wall_seconds": full_wall,
            "replay_wall_seconds": replay_wall,
            "speedup": full_wall / replay_wall if replay_wall > 0 else float("inf"),
            "virtual_makespan_s": full.max_time,
            "makespans_match": makespans_match,
            "clocks_match": clocks_match,
        }

    return {
        "mesh_shape": list(mesh_shape),
        "num_ranks": num_ranks,
        "num_steps": num_steps,
        "platforms": list(platforms),
        "record_wall_seconds": record_wall,
        "full_wall_seconds": full_total,
        "replay_wall_seconds": replay_total,
        "speedup": full_total / replay_total if replay_total > 0 else float("inf"),
        "speedup_including_capture": full_total / (record_wall + replay_total),
        "makespans_match_all": all_match,
        "per_platform": per_platform,
    }


def measure_service(num_clients=64, hold_timeout_s=60.0):
    """Broker-as-a-service under ``num_clients`` concurrent HTTP clients.

    Boots a real :class:`~repro.service.BrokerService` (localhost HTTP)
    with an injected run function whose first invocation *holds* until
    every client has submitted — so the coalescing claim is exercised at
    its worst case: ``num_clients`` identical submissions from distinct
    tenants racing one in-flight computation.  Three phases:

    * **coalesce** — all clients submit the same content-identical
      request concurrently; exactly one computation may run
      (``computations``), the rest must coalesce
      (``dedup_hit_rate = coalesced / num_clients``), and every client's
      unpickled result must be bit-identical (the property that makes
      cross-tenant sharing safe).  Per-submit round-trip latency at full
      concurrency is recorded as the admission-latency distribution.
    * **throughput** — every client submits a *distinct* job (different
      seed moves the content address) and waits for its result:
      end-to-end jobs/second through admission, queue, worker, and HTTP.
    * **admission** — a ``greedy`` tenant with a one-point concurrency
      quota submits a multi-point job and must receive a typed
      :class:`~repro.errors.AdmissionDenied` (reason ``quota``) while
      every other tenant's job completed normally.

    Deterministic pieces (computation count, dedup rate, result
    identity, denial) gate hard; the latency/throughput numbers get the
    usual wall-clock tolerance.
    """
    import pickle
    import threading

    from repro.broker.api import RunRequest
    from repro.errors import AdmissionDenied
    from repro.harness.config import RunConfig
    from repro.service import (
        AdmissionPolicy,
        BrokerService,
        ServiceClient,
        ServiceConfig,
        TenantQuota,
    )

    release = threading.Event()
    computations: list[tuple] = []

    def run_fn(request):
        computations.append(tuple(sorted(request.artifacts)))
        release.wait(timeout=hold_timeout_s)
        return (
            "service-bench",
            tuple(sorted(request.artifacts)),
            request.config.cache_token(),
        )

    roomy = TenantQuota(
        rate_per_s=100_000.0, burst=100_000, max_concurrent_points=100_000
    )
    policy = AdmissionPolicy(
        default_quota=roomy,
        quotas={"greedy": TenantQuota(
            rate_per_s=100_000.0, burst=100_000, max_concurrent_points=1
        )},
        max_queue_depth=100_000,
    )
    shared = RunRequest(artifacts=("fig4",), config=RunConfig(seed=7))

    with BrokerService(
        ServiceConfig(max_workers=2, policy=policy, http=True),
        run_fn=run_fn,
    ) as service:
        url = service.url

        # -- phase 1: the coalesce storm --------------------------------
        receipts: list = [None] * num_clients
        results: list = [None] * num_clients
        latencies: list = [None] * num_clients
        barrier = threading.Barrier(num_clients)

        def submit_client(i):
            client = ServiceClient(url)
            barrier.wait(timeout=hold_timeout_s)
            t0 = time.perf_counter()
            receipts[i] = client.submit(shared, tenant=f"client-{i}")
            latencies[i] = time.perf_counter() - t0

        threads = [
            threading.Thread(target=submit_client, args=(i,))
            for i in range(num_clients)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=hold_timeout_s)
        submit_wall = time.perf_counter() - start
        release.set()
        coalesce_computations = len(computations)

        def fetch_client(i):
            client = ServiceClient(url)
            results[i] = pickle.dumps(
                client.result(receipts[i].job_id, timeout=hold_timeout_s)
            )

        threads = [
            threading.Thread(target=fetch_client, args=(i,))
            for i in range(num_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=hold_timeout_s)

        coalesced = sum(1 for r in receipts if r is not None and r.coalesced)
        ordered = sorted(latencies)
        latency = {
            "mean_ms": 1e3 * sum(ordered) / num_clients,
            "p95_ms": 1e3 * ordered[min(num_clients - 1,
                                        int(0.95 * num_clients))],
            "max_ms": 1e3 * ordered[-1],
        }

        # -- phase 2: distinct jobs end to end --------------------------
        def distinct_client(i):
            client = ServiceClient(url)
            request = RunRequest(
                artifacts=("fig4",), config=RunConfig(seed=1000 + i)
            )
            receipt = client.submit(request, tenant=f"client-{i}")
            client.result(receipt.job_id, timeout=hold_timeout_s)

        threads = [
            threading.Thread(target=distinct_client, args=(i,))
            for i in range(num_clients)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=hold_timeout_s)
        throughput_wall = time.perf_counter() - start

        # -- phase 3: the over-quota tenant -----------------------------
        greedy = RunRequest(
            artifacts=("fig4", "fig5"), config=RunConfig(seed=2)
        )
        denied_ok, denial_reason = False, None
        try:
            ServiceClient(url).submit(greedy, tenant="greedy")
        except AdmissionDenied as exc:
            denied_ok = exc.tenant == "greedy" and exc.reason == "quota"
            denial_reason = exc.reason
        stats = service.stats()

    return {
        "num_clients": num_clients,
        "coalesce": {
            "submissions": num_clients,
            "coalesced": coalesced,
            "dedup_hit_rate": coalesced / num_clients,
            "computations": coalesce_computations,
            "identical_results": (
                all(r is not None for r in results)
                and len(set(results)) == 1
            ),
            "submit_wall_seconds": submit_wall,
            "admission_latency": latency,
        },
        "throughput": {
            "jobs": num_clients,
            "wall_seconds": throughput_wall,
            "jobs_per_second": num_clients / throughput_wall,
        },
        "admission": {
            "denied_ok": denied_ok,
            "reason": denial_reason,
            "tenant": "greedy",
        },
        "queue_stats": stats,
    }


def measure_elasticity(
    mesh_shape=(4, 4, 4),
    num_steps=6,
    p_old=4,
    rank_counts=(1, 2, 3, 8),
    seed=7,
):
    """Malleable repartition latency vs width plus the elastic cost edge.

    Three deterministic claims of ``docs/elasticity.md``, measured:

    * **repartition** — a v2 checkpoint written at ``p_old`` mid-run is
      re-decomposed at every width in ``rank_counts`` (shrink to 1,
      non-power-of-two, expand past ``p_old``), timing
      :func:`~repro.resilience.repartition_state` and recording the
      redistribution volume (moved-DOF fraction, edge cut, balance);
    * **trajectory** — the shrink run's final solution must be
      *byte-identical* to the fixed-width run's (the deterministic
      numerics gate that makes re-brokering legal);
    * **cost** — the volatile-market scenario through the
      :class:`~repro.broker.assembly.ElasticBroker`: realized elastic
      dollars against the rigid all-spot replay and the failure-free
      on-demand baseline (both ratios must stay under 1).
    """
    import tempfile

    from repro.apps.reaction_diffusion import RDProblem
    from repro.broker.assembly import ElasticBroker, volatile_market_request
    from repro.resilience import run_malleable
    from repro.resilience.malleable import MALLEABLE_CHECKPOINT, repartition_state

    problem = RDProblem(mesh_shape=mesh_shape, num_steps=num_steps)
    half = num_steps // 2
    repartition = {}
    with tempfile.TemporaryDirectory() as scratch:
        start = time.perf_counter()
        fixed = run_malleable(problem, [(2, num_steps)], scratch + "/fixed")
        fixed_wall = time.perf_counter() - start

        start = time.perf_counter()
        shrunk = run_malleable(
            problem, [(p_old, half), (2, num_steps - half)], scratch + "/shrink"
        )
        shrink_wall = time.perf_counter() - start
        trajectory_match = (
            fixed.solution.tobytes() == shrunk.solution.tobytes()
            and fixed.t == shrunk.t
        )

        # The shrink run left its mid-run checkpoint (written at p_old)
        # behind; repartition it at every requested width.
        checkpoint = Path(scratch) / "shrink" / MALLEABLE_CHECKPOINT
        for p_new in rank_counts:
            start = time.perf_counter()
            _states, _t, _step, _own, report = repartition_state(
                checkpoint, problem, p_new
            )
            repartition[str(p_new)] = {
                "seconds": time.perf_counter() - start,
                "moved_fraction": report.moved_fraction,
                "edge_cut": report.edge_cut,
                "load_imbalance": report.load_imbalance,
            }

    broker = ElasticBroker(volatile_market_request(seed=seed)).run()
    return {
        "mesh_shape": list(mesh_shape),
        "num_steps": num_steps,
        "p_old": p_old,
        "rank_counts": list(rank_counts),
        "seed": seed,
        "trajectory_match": trajectory_match,
        "fixed_wall_seconds": fixed_wall,
        "shrink_wall_seconds": shrink_wall,
        "repartition": repartition,
        "repartition_seconds_max": max(
            entry["seconds"] for entry in repartition.values()
        ),
        "scenario": {
            "num_ranks": broker.request.num_ranks,
            "num_iterations": broker.request.num_iterations,
            "nodes": broker.nodes,
            "events": len(broker.decisions),
            "actions": [d.action for d in broker.decisions],
            "elastic_cost": broker.cost_dollars,
            "elastic_wall_hours": broker.wall_hours,
            "met_deadline": broker.met_deadline,
            "beats_baselines": broker.beats_baselines,
            "static_all_spot_cost": broker.static_all_spot_cost,
            "static_on_demand_cost": broker.static_on_demand_cost,
        },
        "elastic_vs_rigid_spot_ratio": (
            broker.cost_dollars / broker.static_all_spot_cost
        ),
        "elastic_vs_ondemand_ratio": (
            broker.cost_dollars / broker.static_on_demand_cost
        ),
    }


def collect_kernel_metrics(smoke=False):
    """The BENCH_kernels.json payload."""
    if smoke:
        rd = measure_rd_step_paths(mesh_shape=(5, 5, 5), num_steps=3)
        dist = measure_dist_cg_rounds(mesh_shape=(4, 4, 4), num_ranks=2)
        phases = measure_rd_phases(
            mesh_shape=(5, 5, 5), num_ranks=2, num_steps=6, discard=3
        )
        colls = measure_collectives(reps=2, large_doubles=16384)
        engine = measure_engine_throughput(
            rank_counts=(8, 64), steps=2, sweep_max_ranks=125,
            saturation_ranks=512, saturation_doubles=16384,
        )
        replay = measure_replay(mesh_shape=(4, 4, 8), num_steps=2)
        obs_overhead = measure_obs_overhead(num_ranks=128, steps=2)
        service = measure_service(num_clients=16)
        elasticity = measure_elasticity(num_steps=4, rank_counts=(1, 2, 3))
    else:
        rd = measure_rd_step_paths()
        dist = measure_dist_cg_rounds()
        phases = measure_rd_phases()
        colls = measure_collectives()
        engine = measure_engine_throughput()
        replay = measure_replay()
        obs_overhead = measure_obs_overhead()
        service = measure_service()
        elasticity = measure_elasticity()
    return {
        "benchmark": "kernels",
        "smoke": smoke,
        "rd_step_path": rd,
        "dist_cg_rounds": dist,
        "rd_phases": phases,
        "collectives": colls,
        "engine_throughput": engine,
        "replay": replay,
        "obs_overhead": obs_overhead,
        "service": service,
        "elasticity": elasticity,
        "targets": {
            "rd_step_speedup_min": 3.0,
            "dist_cg_rounds_ratio_min": 1.5,
            "fused_rounds_per_iteration": 1.0,
            "collectives_offnode_bytes_ratio_min": 1.5,
            "collectives_small_algorithm": "recursive_doubling",
            # Engine floors are one-core worst cases (see the
            # measure_engine_throughput docstring): the events/threads
            # ratio scales with host cores and rank count, so multi-core
            # CI sees far larger margins at p = 512.
            "engine_throughput_ratio_min": 1.3,
            "engine_throughput_ratio_min_top": 2.5,
            "engine_sweep_budget_seconds": 120.0,
            "engine_saturation_virtual_ratio_min": 2.0,
            # Per-additional-platform cost ratio of the record/replay
            # fast path (recording cached); makespan equality is exact.
            "replay_speedup_min": 10.0,
            # Clocks + health may cost real time but never correctness:
            # the gate requires bit-identical virtual clocks and bounds
            # the wall overhead of diagnosis at p = 512 (one-core CI
            # runners see the worst case — numpy vector merges per
            # message on a single core).
            "obs_overhead_ratio_max": 6.0,
            # 64 identical submissions must coalesce onto one
            # computation: at worst one submission computes, so the
            # dedup rate floor is well under the deterministic
            # (n-1)/n but far above "coalescing quietly broke".
            "service_dedup_rate_min": 0.9,
            # Elastic re-brokering must stay strictly cheaper than both
            # static answers in the volatile-market scenario, and the
            # checkpoint -> repartition -> resume hop must stay cheap
            # (wall budget is generous: one-core CI runners).
            "elasticity_cost_ratio_max": 1.0,
            "elasticity_repartition_seconds_max": 2.0,
        },
    }


def write_bench_json(metrics, path=None) -> Path:
    """Write the payload next to the repo root (or to ``path``)."""
    path = Path(path) if path is not None else REPO_ROOT / "BENCH_kernels.json"
    path.write_text(json.dumps(metrics, indent=2) + "\n")
    return path
