"""Per-layer micro-programs: where the time under the workloads goes.

One function per layer (layer = ``src/repro/<module>``), each timing
calls into that layer's public functions from outside.  Every traced
run executes the whole suite, so the sizes here are chosen to keep it
near ten seconds; README.md lists them and says which end-to-end metric
each number should move.

Timing samples go to ``Layers.samples`` (the reported value is their
median); exact counts are recorded the same way and also handed to the
workload's observations, which ``run.py`` compares with
``reference.json``.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import time

from harness import Spans, set_affinity
from workloads import (RD_RANKS, RD_WARMUP_MESH, SERIES_STEPS, SERVICE_ARTIFACT,
                       clocks_digest, node_topology, rd_rank_main, roomy_service_config,
                       series_program, sha256_text)

PING_MESSAGES = 2000
LAUNCH_RANKS = 1000
COLLECTIVE_RANKS = 512
COLLECTIVE_ROUNDS = 4
LARGE_ALLREDUCE_RANKS = 64
LARGE_ALLREDUCE_DOUBLES = 8192
OBSERVED_RANKS = 216
UNPINNED_RANKS = 216
FEM_MESH = (8, 8, 8)
FACTOR_MESH = (5, 5, 5)
DIST_CG_MESH = (5, 5, 5)
DIST_CG_RANKS = 4
REPLAY_PLATFORMS = ("puma", "ellipse", "lagrange", "ec2")
SERVICE_JOBS = 20


def _ping_program(comm, n, blocking):
    """Rank 0 -> rank 1, ``n`` one-double messages.

    Blocking: each message is answered before the next (two scheduler
    switches per round trip).  Streaming: all sends are posted back to
    back and drained by one receiver, so almost no switches happen; the
    difference between the two is the scheduler switch.
    """
    if blocking:
        for _ in range(n // 2):
            if comm.rank == 0:
                comm.send(1.0, dest=1)
                comm.recv(source=1)
            else:
                comm.recv(source=0)
                comm.send(1.0, dest=0)
    elif comm.rank == 0:
        for _ in range(n):
            comm.send(1.0, dest=1)
    else:
        for _ in range(n):
            comm.recv(source=0)


def _empty_program(comm):
    return None


def _rounds_program(comm, rounds, kind, doubles):
    import numpy as np

    payload = float(comm.rank) if doubles == 1 else np.full(doubles, float(comm.rank))
    for _ in range(rounds):
        if kind == "allreduce":
            comm.allreduce(payload)
        else:
            comm.barrier()


NO_SPANS = Spans("layers", enabled=False)


class Layers:
    """Runs the suite; collects samples, units, counts and observations."""

    def __init__(self, seed, scratch, env, allowed_cpus, observe):
        self.seed = seed
        self.scratch = scratch
        self.env = env
        self.allowed_cpus = allowed_cpus
        self.observe = observe  # (key, value, any_seed) -> None
        self.samples: dict[str, list[float]] = {}
        self.units: dict[str, str] = {}

    # -- recording -----------------------------------------------------------

    def record(self, name, unit, value) -> None:
        self.samples.setdefault(name, []).append(float(value))
        self.units[name] = unit

    def count(self, name, value) -> None:
        """An exact count: reported as a metric and pinned by the reference."""
        self.record(name, "count", value)
        self.observe(f"layers.{name}", value, True)

    def time(self, name, unit, fn, repeat=3, per=1.0):
        """Time ``fn`` ``repeat`` times in ``unit`` per ``per`` operations."""
        scale = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}[unit]
        out = None
        for _ in range(repeat):
            gc.collect()
            start = time.perf_counter()
            out = fn()
            self.record(name, unit, (time.perf_counter() - start) * scale / per)
        return out

    def run_all(self) -> None:
        self.cli()
        self.broker()
        self.simmpi()
        self.obs()
        self.numerics()
        self.models()
        self.service()

    # -- cli -------------------------------------------------------------------

    def cli(self) -> None:
        command = [sys.executable, "-c", "import repro"]
        self.time("cli.import_s", "s", lambda: subprocess.run(
            command, env=self.env, cwd=self.scratch.path, check=True, timeout=120), repeat=2)

    # -- broker ----------------------------------------------------------------

    def broker(self) -> None:
        from repro import (RunConfig, RunRequest, artifact_names, broker_assemblies,
                           run, section_7d_request)
        from repro.broker import (ElasticBroker, SweepCache, code_fingerprint,
                                  volatile_market_request)

        def fingerprint():
            code_fingerprint.cache_clear()
            return code_fingerprint()

        self.time("broker.fingerprint_ms", "ms", fingerprint)

        cache_dir = self.scratch.fresh_dir("layer-cache")
        config = RunConfig(seed=self.seed, cache_dir=str(cache_dir))
        points = misses = 0
        for name in artifact_names():
            result = self.time(
                f"broker.artifact.{name}_s", "s",
                lambda name=name: run(RunRequest(artifacts=(name,), config=config)),
                repeat=1,
            )
            points += result.stats.points
            misses += result.stats.misses
            self.observe(f"layers.rendered_sha256.{name}",
                         sha256_text(result.render(name)), False)
        warm = self.time("broker.warm_all_ms", "ms",
                         lambda: run(RunRequest(artifacts=("all",), config=config)),
                         repeat=5)
        self.samples["broker.cache_hit_us_per_point"] = [
            ms * 1e3 / warm.stats.points for ms in self.samples["broker.warm_all_ms"]]
        self.units["broker.cache_hit_us_per_point"] = "us"
        self.count("broker.points", points)
        self.count("broker.cache_misses", misses)
        self.count("broker.cache_hits", warm.stats.hits)

        cache = SweepCache(self.scratch.fresh_dir("layer-put"))
        value = {"platform": "ec2", "clocks": [0.25 * i for i in range(64)]}
        puts = 200
        self.time("broker.cache_put_us", "us",
                  lambda: [cache.put(f"{i:064x}", value) for i in range(puts)], per=puts)

        self.time("broker.assemblies_ms", "ms",
                  lambda: broker_assemblies(section_7d_request()))
        self.time("broker.elastic_ms", "ms",
                  lambda: ElasticBroker(volatile_market_request(seed=self.seed)).run(),
                  repeat=1)

    # -- simmpi ------------------------------------------------------------------

    def spmd(self, program, p, kwargs=None, **options):
        from repro.simmpi import run_spmd

        return run_spmd(program, p, topology=node_topology(p), kwargs=kwargs or {},
                        real_timeout=600.0, engine="events", **options)

    def simmpi(self) -> None:
        from repro.obs.causal import CausalTracker

        listeners = {
            "pingpong": {},
            "pingpong_trace": {"trace": True},
            "pingpong_record": {"record_schedule": True},
            "pingpong_causal": {"causal": "tracker"},
            "pingpong_all": {"trace": True, "record_schedule": True, "causal": "tracker"},
        }
        for label, options in listeners.items():
            def ping(options=options):
                if "causal" in options:
                    options = {**options, "causal": CausalTracker(2, events_limit=8)}
                return self.spmd(_ping_program, 2,
                                 {"n": PING_MESSAGES, "blocking": True}, **options)

            self.time(f"simmpi.{label}_ns_per_msg", "ns", ping, per=PING_MESSAGES)
        self.time("simmpi.stream_ns_per_msg", "ns",
                  lambda: self.spmd(_ping_program, 2, {"n": PING_MESSAGES, "blocking": False}),
                  per=PING_MESSAGES)

        self.time("simmpi.launch_us_per_rank", "us",
                  lambda: self.spmd(_empty_program, LAUNCH_RANKS), repeat=2, per=LAUNCH_RANKS)

        # Collective cost per rank and round, net of launching the ranks.
        p = COLLECTIVE_RANKS
        start = time.perf_counter()
        self.spmd(_empty_program, p)
        launch = time.perf_counter() - start
        for kind in ("allreduce", "barrier"):
            start = time.perf_counter()
            self.spmd(_rounds_program, p,
                      {"rounds": COLLECTIVE_ROUNDS, "kind": kind, "doubles": 1})
            net = time.perf_counter() - start - launch
            self.record(f"simmpi.{kind}_us_per_rank", "us", net * 1e6 / (p * COLLECTIVE_ROUNDS))
        self.time(
            "simmpi.allreduce_64k_us_per_rank", "us",
            lambda: self.spmd(_rounds_program, LARGE_ALLREDUCE_RANKS,
                              {"rounds": 1, "kind": "allreduce",
                               "doubles": LARGE_ALLREDUCE_DOUBLES}),
            repeat=2, per=LARGE_ALLREDUCE_RANKS,
        )

        series = {"steps": SERIES_STEPS, "mult": 1, "offset": 0}
        big = self.time("simmpi.series_p1000_s", "s",
                        lambda: self.spmd(series_program, 1000, series), repeat=1)
        self.count("simmpi.msgs", sum(big.messages_sent))
        self.count("simmpi.bytes", sum(big.bytes_sent))

        # The cross-core hand-off: the same launch with every CPU allowed.
        before = os.sched_getaffinity(0)
        self.time("simmpi.series_p216_s", "s",
                  lambda: self.spmd(series_program, UNPINNED_RANKS, series), repeat=2)
        set_affinity(self.allowed_cpus)
        try:
            self.time("simmpi.series_p216_unpinned_s", "s",
                      lambda: self.spmd(series_program, UNPINNED_RANKS, series), repeat=2)
        finally:
            set_affinity(before)

        self.replay()

    def replay(self) -> None:
        """One recording re-timed through four platforms vs full simulation."""
        from repro.apps.reaction_diffusion import RDProblem
        from repro.perfmodel.compute import rd_modeled_compute
        from repro.platforms.catalog import platform_by_name
        from repro.simmpi import replay_schedule, run_spmd
        from repro.simmpi.launcher import default_topology

        problem = RDProblem(mesh_shape=RD_WARMUP_MESH, num_steps=1)

        def simulate(topology, rate, **options):
            return run_spmd(
                rd_rank_main, RD_RANKS, topology=topology,
                args=(problem, rd_modeled_compute(problem, RD_RANKS, rate=rate),
                      NO_SPANS, None),
                real_timeout=300.0, engine="events", **options)

        captured = self.time(
            "simmpi.capture_s", "s",
            lambda: simulate(default_topology(RD_RANKS), 1.0, record_schedule=True),
            repeat=1)
        recording = captured.recording
        ops = mismatches = 0
        for name in REPLAY_PLATFORMS:
            spec = platform_by_name(name)
            topology = (spec.topology(num_nodes=spec.nodes_for_ranks(RD_RANKS))
                        if spec.on_demand else spec.topology())
            full = simulate(topology, spec.core_flops())
            start = time.perf_counter()
            replayed = replay_schedule(recording, topology=topology,
                                       compute_rate=spec.core_flops())
            wall = time.perf_counter() - start
            platform_ops = sum(full.messages_sent)
            ops += platform_ops
            self.record("simmpi.replay_us_per_op", "us", wall * 1e6 / platform_ops)
            mismatches += replayed.clocks != full.clocks
            self.observe(f"layers.replay.{name}.clocks_sha256",
                         clocks_digest(replayed.clocks), True)
        self.count("simmpi.replay_mismatches", mismatches)
        self.count("simmpi.replay_ops", ops)

    # -- obs -----------------------------------------------------------------------

    def obs(self) -> None:
        from repro.obs import CausalTracker, ObsConfig, Observability, run_health
        from repro.obs.exporters import chrome_trace_events

        p = OBSERVED_RANKS
        hub = Observability(ObsConfig(out_dir=None))
        tracker = CausalTracker(p, events_limit=8)
        self.spmd(series_program, p, {"steps": SERIES_STEPS, "mult": 1, "offset": 0},
                  observability=hub, causal=tracker)
        self.time("obs.health_ms", "ms", lambda: run_health(hub.tracer), repeat=2)
        report = self.time("obs.causal_check_ms", "ms", tracker.check, repeat=2)
        self.count("obs.causal_violations", len(report.violations))
        self.time("obs.chrome_export_ms", "ms", lambda: chrome_trace_events(hub), repeat=2)

        spans = 5000
        for name, enabled in (("obs.span_ns", True), ("obs.span_off_ns", False)):
            view = Observability(ObsConfig(enabled=enabled, out_dir=None)).wall_view()

            def open_close(view=view):
                for _ in range(spans):
                    with view.span("bench"):
                        pass

            self.time(name, "ns", open_close, per=spans)

        from repro.apps.reaction_diffusion import RDProblem
        from repro.perfmodel.compute import rd_modeled_compute
        from repro.simmpi import run_spmd

        problem = RDProblem(mesh_shape=RD_WARMUP_MESH, num_steps=1)
        rd_hub = Observability(ObsConfig(out_dir=None))
        self.time("obs.rd_observed_s", "s", lambda: run_spmd(
            rd_rank_main, RD_RANKS,
            args=(problem, rd_modeled_compute(problem, RD_RANKS), NO_SPANS, None, rd_hub),
            observability=rd_hub, real_timeout=300.0, engine="events"), repeat=1)

    # -- fem / la / partition / apps ------------------------------------------------

    def numerics(self) -> None:
        import numpy as np

        from repro.apps.navier_stokes import NSProblem, NSSolver
        from repro.apps.reaction_diffusion import RDProblem, RDSolver
        from repro.fem import (DofMap, StructuredBoxMesh, apply_dirichlet,
                               assemble_mass, assemble_stiffness)
        from repro.la import BlockJacobiPreconditioner, ILU0Preconditioner, cg
        from repro.la.distributed import DistMatrix, dist_cg_fused
        from repro.partition import partition_graph, partition_rcb
        from repro.simmpi import run_spmd

        mesh = StructuredBoxMesh(FEM_MESH)
        dofmap = DofMap(mesh, 2)
        stiffness = self.time("fem.stiffness_q2_ms", "ms", lambda: assemble_stiffness(dofmap))
        mass = self.time("fem.mass_q2_ms", "ms", lambda: assemble_mass(dofmap))
        operator = (stiffness + mass).tocsr()
        matrix, rhs = self.time(
            "fem.dirichlet_ms", "ms",
            lambda: apply_dirichlet(operator, np.ones(dofmap.num_dofs),
                                    dofmap.boundary_dofs, 0.0, symmetric=True))
        matrix = matrix.tocsr()
        solved = self.time("la.cg_ms", "ms", lambda: cg(matrix, rhs, tol=1e-10, maxiter=5000))
        self.count("la.cg_iters", solved.iterations)
        # ILU(0) is a Python-level factorization: a smaller operator keeps it short.
        factor_map = DofMap(StructuredBoxMesh(FACTOR_MESH), 2)
        factor = (assemble_stiffness(factor_map) + assemble_mass(factor_map)).tocsr()
        self.time("la.ilu0_setup_ms", "ms", lambda: ILU0Preconditioner(factor), repeat=1)
        blocks = np.array_split(np.arange(factor_map.num_dofs), 8)
        self.time("la.block_jacobi_setup_ms", "ms",
                  lambda: BlockJacobiPreconditioner(factor, blocks), repeat=1)

        small = DofMap(StructuredBoxMesh(DIST_CG_MESH), 1)
        a, b = apply_dirichlet((assemble_stiffness(small) + assemble_mass(small)).tocsr(),
                               np.ones(small.num_dofs), small.boundary_dofs, 0.0)
        a = a.tocsr()

        def dist_main(comm):
            dist = DistMatrix.from_global(comm, a)
            before = comm.collective_counts["allreduce"]
            dist_cg_fused(dist, dist.vector_from_global(b), tol=1e-12, maxiter=2000)
            return comm.collective_counts["allreduce"] - before

        self.count("la.dist_cg_rounds",
                   run_spmd(dist_main, DIST_CG_RANKS, real_timeout=60.0).returns[0])

        self.time("partition.rcb_ms", "ms", lambda: partition_rcb(mesh, 8))
        self.time("partition.graph_ms", "ms", lambda: partition_graph(mesh, 8), repeat=2)

        rd = RDSolver(RDProblem(mesh_shape=FEM_MESH, num_steps=4), assembly_mode="combine",
                      discard=0)
        self.time("apps.rd_step_ms", "ms", rd.step)
        self.count("apps.rd_iters", sum(rd.solve_iterations))
        ns = NSSolver(NSProblem(mesh_shape=(4, 4, 4), num_steps=4), discard=0)
        self.time("apps.ns_step_ms", "ms", ns.step, repeat=2)
        self.rd_solver = rd

    # -- perfmodel / cloud / resilience / io ------------------------------------------

    def models(self) -> None:
        from repro.apps.workload import RD_WORKLOAD
        from repro.cloud import CC2_8XLARGE, SpotMarket
        from repro.io.checkpoint import load_rd_state, save_rd_state
        from repro.perfmodel import PhaseModel
        from repro.platforms.catalog import platform_by_name
        from repro.resilience import repartition_state

        model = PhaseModel(RD_WORKLOAD, platform_by_name("ec2"))
        ranks = (8, 64, 512, 1000)
        self.time("perfmodel.phases_us", "us",
                  lambda: [model.predict(p) for p in ranks], per=len(ranks))

        rounds = 200
        market = SpotMarket(CC2_8XLARGE, spike_probability=0.12, seed=self.seed)

        def sample():
            sampler = market.reclaim_sampler(64, 1.0, seed=self.seed, replenish=True)
            return [sampler.next_round() for _ in range(rounds)]

        self.time("cloud.reclaim_sampler_ms", "ms", sample)

        solver = self.rd_solver
        path = self.scratch.fresh_dir("layer-ckpt") / "rd.ckpt"
        written = self.time(
            "resilience.checkpoint_save_ms", "ms",
            lambda: save_rd_state(path, solver, extra_metadata={"num_ranks": 8}))
        self.count("io.checkpoint_bytes", written)
        self.time("resilience.checkpoint_load_ms", "ms", lambda: load_rd_state(path, solver))
        self.time("resilience.repartition_ms", "ms",
                  lambda: repartition_state(path, solver.problem, 4), repeat=2)

    # -- service ----------------------------------------------------------------------

    def service(self) -> None:
        """Stages of one job, single client, so they add up to its latency."""
        from repro import BrokerService, RunConfig, RunRequest, ServiceClient

        cache_dir = self.scratch.fresh_dir("layer-service")
        base = self.seed * 1_000_003 + 500_000

        def request(i):
            return RunRequest(artifacts=(SERVICE_ARTIFACT,),
                              config=RunConfig(seed=base + i, cache_dir=str(cache_dir)))

        with BrokerService(roomy_service_config()) as service:
            client = ServiceClient(service.url)
            client.run(request(-1))  # warm-up, discarded
            for i in range(SERVICE_JOBS):
                start = time.perf_counter()
                receipt = client.submit(request(i), tenant="bench")
                submitted = time.perf_counter()
                receipt_wall = time.time()
                client.result(receipt.job_id, timeout=120.0)
                done = time.perf_counter()
                status = client.status(receipt.job_id)
                self.record("service.submit_fresh_ms", "ms", (submitted - start) * 1e3)
                # Receipt in hand -> job done, on the service's own wall stamps.
                self.record("service.compute_wait_ms", "ms",
                            max(0.0, status.finished_wall - receipt_wall) * 1e3)
                self.record("service.job_fresh_ms", "ms", (done - start) * 1e3)
            for i in range(SERVICE_JOBS):
                start = time.perf_counter()
                receipt = client.submit(request(i), tenant="other")
                submitted = time.perf_counter()
                client.result(receipt.job_id, timeout=120.0)
                self.record("service.submit_repeat_ms", "ms", (submitted - start) * 1e3)
                self.record("service.result_fetch_ms", "ms",
                            (time.perf_counter() - submitted) * 1e3)
            self.time("service.http_stats_ms", "ms", client.stats, repeat=SERVICE_JOBS)
            self.time("service.inproc_job_ms", "ms",
                      lambda: service.run(request(SERVICE_JOBS + len(
                          self.samples.get("service.inproc_job_ms", ())))),
                      repeat=SERVICE_JOBS)
            stats = service.stats()
        self.count("service.computations", stats["computations"])
        self.count("service.coalesced", stats["coalesced"])
        self.count("service.denied", stats["denied"])
