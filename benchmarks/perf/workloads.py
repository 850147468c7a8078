"""The six workloads: what a user of this repository actually runs.

Each workload builds its inputs from the seed, runs *repetitions* of
one user-visible unit of work through public ``repro`` entry points
only, and digests every repetition's outputs into observations that
``run.py`` compares with ``reference.json``.  The timed part
(:meth:`Workload.repetition`) and the checked part
(:meth:`Workload.digest`) are separate so checking never sits inside a
measured interval.

Why each workload exists, and which layer it bypasses, is in README.md.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import subprocess
import sys
import threading
import time

from harness import Spans

#: Work of every workload is independent of the seed (only values
#: change), so runs at different seeds measure the same amount of work.
SERIES_STEPS = 3
OBSERVED_MAX_RANKS = 512
NODE_CORES = 32
RD_MESH = (6, 6, 12)
RD_WARMUP_MESH = (3, 3, 4)
RD_RANKS = 8
RD_TOL = 1e-10
RD_NODAL_TOLERANCE = 1e-6
SERVICE_CLIENTS = 2
SERVICE_BLOCK_FRESH = 60
SERVICE_BLOCK_REPEAT = 40
SERVICE_PREFILL = 16
SERVICE_ARTIFACT = "fig4"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def node_topology(p):
    """``p`` ranks block-placed on 32-core nodes behind 1 GbE."""
    from repro.network.model import GIGABIT_ETHERNET, NetworkModel
    from repro.network.topology import ClusterTopology

    return ClusterTopology(max(1, -(-p // NODE_CORES)), NODE_CORES,
                           NetworkModel(GIGABIT_ETHERNET))


def roomy_service_config():
    """Two workers over HTTP, quotas no benchmark job list can reach."""
    from repro import AdmissionPolicy, ServiceConfig, TenantQuota

    roomy = TenantQuota(rate_per_s=1e6, burst=10**6, max_concurrent_points=10**6)
    return ServiceConfig(max_workers=2, http=True, policy=AdmissionPolicy(
        default_quota=roomy, max_queue_depth=10**6))


class Workload:
    """Base: observation bookkeeping shared by all workloads."""

    name = ""
    why = ""
    #: How often set-up is repeated for the ``setup_s`` median.
    setups = 3
    #: What ``items_per_s`` counts on this workload.
    item = ""
    #: What one ``op_tail_ms`` sample times.
    op = "one repetition"

    def __init__(self, seed: int, scratch, env: dict):
        self.seed = seed
        self.scratch = scratch
        self.env = env
        self.spans = Spans("untraced", enabled=False)
        self.items = 0
        #: Per repetition, the latency of every operation in it.
        self.op_ms: list[list[float]] = []
        self.attempted = 0
        self.failed = 0
        #: key -> (value, holds_at_any_seed)
        self.observed: dict[str, tuple[object, bool]] = {}
        self.drift: list[str] = []

    @classmethod
    def load(cls) -> None:
        """Import what the workload needs (timed as part of set-up)."""

    def setup(self) -> None:
        """Build inputs and warm up; callable repeatedly."""

    def teardown(self) -> None:
        """Release what the latest :meth:`setup` holds."""

    def repetition(self):
        raise NotImplementedError

    def digest(self, out) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Whole-run checks, after the last repetition and before teardown."""

    def observe(self, key: str, value, any_seed: bool) -> None:
        """Record one simulated statistic; repeats must agree exactly."""
        seen = self.observed.get(key)
        if seen is None:
            self.observed[key] = (value, any_seed)
        elif seen[0] != value:
            self.drift.append(f"{key}: {seen[0]!r} then {value!r} in one run")

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.drift.append(message)


# -- simulated SPMD workloads --------------------------------------------------


def series_program(comm, steps, mult, offset):
    """``steps`` rounds of scalar allreduce + barrier (one sweep point)."""
    total = 0.0
    for k in range(steps):
        total += comm.allreduce(float((comm.rank * mult + offset + k) % 97))
        comm.barrier()
    return total


def series_expected(p, steps, mult, offset):
    return float(sum((r * mult + offset + k) % 97
                     for k in range(steps) for r in range(p)))


def clocks_digest(clocks) -> str:
    import numpy as np

    return hashlib.sha256(np.asarray(clocks, dtype=np.float64).tobytes()).hexdigest()


class RankSeries(Workload):
    name = "rank_series"
    why = ("paper rank series p=1..1000, observers off: simmpi scheduler, "
           "comm and collectives do all the work; fem/la/broker/service do none")
    item = "simulated messages"
    op = "one run_spmd launch"
    max_ranks = 1000
    #: Each set-up launches the largest point once (1.5 s), so two fit.
    setups = 2

    @classmethod
    def load(cls):
        import repro.apps.workload  # noqa: F401
        import repro.network.model  # noqa: F401
        import repro.network.topology  # noqa: F401
        import repro.simmpi  # noqa: F401

    def setup(self):
        from repro.apps.workload import paper_rank_series

        rng = random.Random(self.seed)
        self.mult = rng.randrange(1, 97)
        self.offset = rng.randrange(97)
        self.series = [p for p in paper_rank_series(1000) if p <= self.max_ranks]
        self.topologies = {p: node_topology(p) for p in self.series}
        # Discarded warm-up: a mid-size point and the largest one, which
        # grows the engine's parked-thread pool to its working size.
        for p in (64, self.max_ranks):
            self.point(p)

    def launch(self, p, **observers):
        from repro.simmpi import run_spmd

        with self.spans.span("simmpi.run_spmd", p=p):
            return run_spmd(
                series_program, p, topology=self.topologies[p],
                kwargs={"steps": SERIES_STEPS, "mult": self.mult, "offset": self.offset},
                real_timeout=600.0, engine="events", **observers,
            )

    def point(self, p):
        """One launch of the series; returns (result, post-pass outputs)."""
        return self.launch(p), None

    def repetition(self):
        out = []
        for p in self.series:
            start = time.perf_counter()
            result, extras = self.point(p)
            out.append((p, time.perf_counter() - start, result, extras))
        return out

    def digest(self, out):
        self.op_ms.append([wall * 1e3 for _p, wall, _result, _extras in out])
        for p, wall, result, extras in out:
            self.attempted += p
            self.items += sum(result.messages_sent)
            self.spans.count("simmpi.messages", sum(result.messages_sent))
            expected = series_expected(p, SERIES_STEPS, self.mult, self.offset)
            self.failed += sum(1 for value in result.returns if value != expected)
            self.observe_run(f"p{p}", result, extras)

    def observe_run(self, prefix, result, extras):
        self.observe(f"{prefix}.makespan", result.max_time, True)
        self.observe(f"{prefix}.clocks_sha256", clocks_digest(result.clocks), True)
        self.observe(f"{prefix}.messages", sum(result.messages_sent), True)
        self.observe(f"{prefix}.bytes", sum(result.bytes_sent), True)
        self.observe(f"{prefix}.algorithms", dict(sorted(result.algorithm_counts.items())), True)


class RankSeriesObserved(RankSeries):
    name = "rank_series_observed"
    why = ("same program through p=512 with tracer, schedule recorder and causal "
           "tracker attached, then run_health and check: listeners and obs post-passes dominate")
    max_ranks = OBSERVED_MAX_RANKS

    @classmethod
    def load(cls):
        super().load()
        import repro.obs.causal  # noqa: F401
        import repro.obs.health  # noqa: F401

    def point(self, p):
        from repro.obs.causal import CausalTracker
        from repro.obs.health import run_health

        tracker = CausalTracker(p, events_limit=8)
        result = self.launch(p, trace=True, record_schedule=True, causal=tracker)
        with self.spans.span("obs.run_health", p=p):
            health = run_health(result.tracer)
        with self.spans.span("obs.causal_check", p=p):
            report = tracker.check()
        return result, (health, report)

    def observe_run(self, prefix, result, extras):
        super().observe_run(prefix, result, None)
        health, report = extras
        self.observe(f"{prefix}.health.comm_time", health.comm_time, True)
        self.observe(f"{prefix}.health.wait_fraction", health.wait_fraction, True)
        self.observe(f"{prefix}.trace_records", len(result.tracer.snapshot()), True)
        self.require(report.ok, f"{prefix}: causal check reported violations")
        self.require(result.recording is not None, f"{prefix}: schedule was not recordable")


def rd_rank_main(comm, problem, charger, spans, parent, obs=None):
    from repro.apps.reaction_diffusion import run_rd_distributed

    with spans.span("apps.run_rd_distributed", parent=parent, rank=comm.rank):
        return run_rd_distributed(
            comm, problem, preconditioner="block-jacobi", tol=RD_TOL,
            discard=0, compute_charger=charger, obs=obs,
        )


class RDSpmd(Workload):
    name = "rd_spmd"
    why = ("distributed RD solve (6,6,12) at p=8 on lagrange: fem assembly, la "
           "preconditioner/CG and partition dominate, simmpi moves only 2478 messages")
    item = "simulated messages"

    @classmethod
    def load(cls):
        import repro.apps.reaction_diffusion  # noqa: F401
        import repro.perfmodel.compute  # noqa: F401
        import repro.platforms.catalog  # noqa: F401
        import repro.simmpi  # noqa: F401

    def setup(self):
        from repro.apps.reaction_diffusion import RDProblem
        from repro.platforms.catalog import platform_by_name

        # The seed perturbs dt by < 1 %: every matrix entry and solution
        # value changes, the iteration and message counts do not.
        dt = 0.05 * (1.0 + 1e-3 * random.Random(self.seed).randrange(8))
        self.problem = RDProblem(mesh_shape=RD_MESH, num_steps=2, dt=dt)
        self.platform = platform_by_name("lagrange")
        self.topology = self.platform.topology()
        self.solve(RDProblem(mesh_shape=RD_WARMUP_MESH, num_steps=2, dt=dt))

    def solve(self, problem, parent=None):
        from repro.perfmodel.compute import rd_modeled_compute
        from repro.simmpi import run_spmd

        charger = rd_modeled_compute(problem, RD_RANKS, rate=self.platform.core_flops())
        return run_spmd(
            rd_rank_main, RD_RANKS, topology=self.topology,
            args=(problem, charger, self.spans, parent),
            real_timeout=300.0, engine="events",
        )

    def repetition(self):
        with self.spans.span("simmpi.run_spmd", p=RD_RANKS) as span_id:
            start = time.perf_counter()
            result = self.solve(self.problem, parent=span_id)
            return time.perf_counter() - start, result

    def digest(self, out):
        wall, result = out
        self.attempted += RD_RANKS
        self.op_ms.append([wall * 1e3])
        self.items += sum(result.messages_sent)
        self.spans.count("simmpi.messages", sum(result.messages_sent))
        self.failed += sum(
            1 for _solution, _log, nodal_error in result.returns
            if not nodal_error < RD_NODAL_TOLERANCE
        )
        self.observe("makespan", result.max_time, True)
        self.observe("clocks_sha256", clocks_digest(result.clocks), True)
        self.observe("messages", sum(result.messages_sent), True)
        self.observe("bytes", sum(result.bytes_sent), True)
        self.observe("algorithms", dict(sorted(result.algorithm_counts.items())), True)


# -- CLI workloads ---------------------------------------------------------------


class ArtifactsCold(Workload):
    name = "artifacts_cold"
    why = ("python -m repro run --all into an empty cache, as a first-time user: "
           "broker registry/engine/cache-miss+put, perfmodel, cloud, resilience, simsweep, render")
    item = "sweep points"
    cold = True

    def setup(self):
        # Discarded warm-up: byte-compiles the package and pages it in, so
        # the first measured run is not the one that pays for that.
        subprocess.run([sys.executable, "-c", "import repro"], env=self.env,
                       cwd=self.scratch.path, check=True, timeout=170)

    def cli(self, cache_dir):
        """One ``python -m repro run --all``; returns (wall, process)."""
        command = [sys.executable, "-m", "repro", "run", "--all",
                   "--seed", str(self.seed), "--cache-dir", str(cache_dir)]
        with self.spans.span("cli.run_all"):
            start = time.perf_counter()
            done = subprocess.run(command, env=self.env, cwd=self.scratch.path,
                                  capture_output=True, text=True, timeout=170)
            return time.perf_counter() - start, done

    def repetition(self):
        cache_dir = self.scratch.fresh_dir("cold-cache")
        try:
            return self.cli(cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def digest(self, out):
        wall, done = out
        self.attempted += 1
        self.op_ms.append([wall * 1e3])
        if done.returncode != 0:
            self.failed += 1
            self.drift.append(f"CLI exited {done.returncode}: {done.stderr[-300:]}")
            return
        lines = done.stdout.splitlines()
        sweep = dict(
            part.split("=", 1)
            for line in lines if line.startswith("[sweep] points=")
            for part in line.split()[1:] if "=" in part
        )
        points, hits, misses = (int(sweep.get(k, -1)) for k in ("points", "hits", "misses"))
        self.items += max(points, 0)
        self.spans.count("broker.points", max(points, 0))
        self.spans.count("broker.cache_hits", max(hits, 0))
        self.observe("points", points, True)
        self.observe("hits", hits, True)
        self.observe("misses", misses, True)
        self.require(points > 0 and (misses if self.cold else hits) == points,
                     f"expected an all-{'miss' if self.cold else 'hit'} sweep, got {sweep}")
        body = "\n".join(line for line in lines if not line.startswith("[sweep]"))
        self.observe("rendered_sha256", sha256_text(body), False)


class ArtifactsWarm(ArtifactsCold):
    name = "artifacts_warm"
    why = ("same command against a full cache: evaluators bypassed, so import repro, "
           "cache lookup, assembly and render are all that is left")
    cold = False
    #: Each set-up is a whole cold run (~4 s), so two are what fits.
    setups = 2

    def setup(self):
        self.teardown()
        self.cache_dir = self.scratch.fresh_dir("warm-cache")
        fill = ArtifactsCold(self.seed, self.scratch, self.env)
        fill.digest(fill.cli(self.cache_dir))
        self.drift.extend(fill.drift)
        # Cold text == warm text is the self-consistency check at any seed.
        if "rendered_sha256" in fill.observed:
            self.observe("rendered_sha256", fill.observed["rendered_sha256"][0], False)

    def teardown(self):
        if getattr(self, "cache_dir", None) is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def repetition(self):
        return self.cli(self.cache_dir)


# -- the service workload ----------------------------------------------------------


class ServiceMix(Workload):
    name = "service_mix"
    why = ("real BrokerService over HTTP, closed loop of 2 clients, 60 % fresh fig4 jobs "
           "and 40 % repeats of finished ones: admission/queue/httpd/pickle around a real broker point")
    item = "jobs"
    op = "one job, submit to result in hand"

    @classmethod
    def load(cls):
        import repro  # noqa: F401

    def setup(self):
        from repro import BrokerService, ServiceClient

        self.teardown()
        self.rng = random.Random(self.seed)
        self.next_fresh = self.seed * 1_000_003
        self.cache_dir = self.scratch.fresh_dir("service-cache")
        self.service = BrokerService(roomy_service_config()).start()
        self.clients = [ServiceClient(self.service.url) for _ in range(SERVICE_CLIENTS)]
        self.finished: list[int] = []
        self.texts: dict[int, str] = {}
        self.submitted_fresh = 0
        self.submitted_repeat = 0
        # Warm-up, discarded: the pool of finished jobs the first block's
        # repeats draw from.
        prefill = [("fresh", self.fresh_seed()) for _ in range(SERVICE_PREFILL)]
        self.digest_jobs(self.run_block(prefill), timed=False)

    def teardown(self):
        if getattr(self, "service", None) is not None:
            self.service.stop()
            self.service = None
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def fresh_seed(self) -> int:
        self.next_fresh += 1
        return self.next_fresh

    def request(self, job_seed):
        from repro import RunConfig, RunRequest

        return RunRequest(
            artifacts=(SERVICE_ARTIFACT,),
            config=RunConfig(seed=job_seed, cache_dir=str(self.cache_dir)),
        )

    def plan_block(self):
        """One seeded block: fresh jobs interleaved with repeats.

        Repeats name jobs finished in *earlier* blocks, so each one
        coalesces onto a done job and never onto one still running.
        """
        jobs = [("fresh", self.fresh_seed()) for _ in range(SERVICE_BLOCK_FRESH)]
        jobs += [("repeat", self.rng.choice(self.finished))
                 for _ in range(SERVICE_BLOCK_REPEAT)]
        self.rng.shuffle(jobs)
        return jobs

    def run_block(self, jobs):
        """Closed loop: each client submits, waits for the result, repeats."""
        outcomes = [[] for _ in self.clients]

        def client_loop(index):
            client = self.clients[index]
            tenant = f"tenant-{index}"
            for kind, job_seed in jobs[index::len(self.clients)]:
                request = self.request(job_seed)
                start = time.perf_counter()
                try:
                    with self.spans.span("service.job", kind=kind) as job_span:
                        with self.spans.span("service.submit", parent=job_span):
                            receipt = client.submit(request, tenant=tenant)
                        with self.spans.span("service.result", parent=job_span):
                            result = client.result(receipt.job_id, timeout=120.0)
                    error = None
                except Exception as exc:  # a failed job is a counted outcome
                    receipt, result, error = None, None, f"{type(exc).__name__}: {exc}"
                outcomes[index].append(
                    (kind, job_seed, time.perf_counter() - start, receipt, result, error)
                )

        threads = [threading.Thread(target=client_loop, args=(i,))
                   for i in range(len(self.clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [row for rows in outcomes for row in rows]

    def repetition(self):
        return self.run_block(self.plan_block())

    def digest(self, out):
        self.digest_jobs(out, timed=True)

    def digest_jobs(self, rows, timed):
        if timed:
            self.attempted += len(rows)
            self.items += len(rows)
            self.op_ms.append([row[2] * 1e3 for row in rows])
        for kind, job_seed, _wall, receipt, result, error in rows:
            if error is not None:
                self.failed += 1
                self.drift.append(f"{kind} job seed={job_seed}: {error}")
                continue
            self.spans.count(f"service.{'coalesced' if receipt.coalesced else 'admitted'}_receipts")
            text = result.render(SERVICE_ARTIFACT)
            if kind == "fresh":
                self.submitted_fresh += 1
                self.finished.append(job_seed)
                self.texts[job_seed] = text
                self.require(not receipt.coalesced, f"fresh job seed={job_seed} was coalesced")
            else:
                self.submitted_repeat += 1
                self.require(receipt.coalesced, f"repeat job seed={job_seed} was recomputed")
                self.require(text == self.texts[job_seed],
                             f"repeat job seed={job_seed} returned different bytes")

    def finish(self):
        """Service-side accounting must match what the clients submitted."""
        stats = self.service.stats()
        self.require(stats["computations"] == self.submitted_fresh,
                     f"computations {stats['computations']} != fresh jobs {self.submitted_fresh}")
        self.require(stats["coalesced"] == self.submitted_repeat,
                     f"coalesced {stats['coalesced']} != repeat jobs {self.submitted_repeat}")
        self.require(stats["denied"] == 0 and stats["failed"] == 0,
                     f"service denied {stats['denied']} and failed {stats['failed']} jobs")
        self.observe("fig4_sha256", sha256_text(self.texts[self.finished[0]]), False)


WORKLOADS = {
    cls.name: cls
    for cls in (RankSeries, RankSeriesObserved, RDSpmd,
                ArtifactsCold, ArtifactsWarm, ServiceMix)
}
