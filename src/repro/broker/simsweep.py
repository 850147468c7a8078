"""The "simsweep" artifact: an executed Fig. 4-style platform sweep.

The registry's other platform artifacts predict times analytically;
this one *executes* the distributed RD solve in the simulator for
every platform of the portfolio — exactly the workload shape whose
per-platform re-execution cost motivated ROADMAP item 5.  It is the
broker integration of the record/replay subsystem
(:mod:`repro.simmpi.recording` / :mod:`repro.simmpi.replay`):

1. the first point to run captures a :class:`ScheduleRecording` of the
   RD solve (deterministic compute via
   :class:`~repro.perfmodel.compute.ModeledCompute` at unit rate) and stores it
   in the content-addressed :class:`~repro.broker.cache.RecordingStore`
   keyed on ``(workload, p, discretization)`` — note: *not* the
   platform;
2. every platform point replays the one recording through its own
   topology/network model at its own compute rate — bit-identical
   virtual clocks at a fraction of the cost — falling back to full
   simulation when the recording is incompatible (the target's
   collective selector would resolve an ``auto`` choice differently).

Each point value records which path it took (``replayed`` /
``bypass_reason``), and the obs hub gets ``replay_capture`` /
``replay_walk`` / ``replay_full_sim`` spans around the three phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.apps.workload import RD_WORKLOAD
from repro.broker.cache import RecordingStore, recording_key
from repro.core.reporting import ascii_table
from repro.harness.config import RunConfig
from repro.perfmodel.compute import ModeledCompute, rd_modeled_compute
from repro.platforms.catalog import platform_by_name
from repro.simmpi.launcher import default_topology, run_spmd
from repro.simmpi.replay import replay_schedule

if TYPE_CHECKING:
    from repro.apps.reaction_diffusion import RDProblem

#: The executed sweep's fixed workload: a small RD solve that exercises
#: every phase (assembly, preconditioner, fused CG) at p = 8.
SWEEP_NUM_RANKS = 8
SWEEP_MESH = (3, 3, 4)
SWEEP_STEPS = 2
SWEEP_PRECONDITIONER = "block-jacobi"
SWEEP_TOL = 1e-10


def _sweep_problem() -> RDProblem:
    """The fixed RD problem every simsweep point solves."""
    from repro.apps.reaction_diffusion import RDProblem

    return RDProblem(mesh_shape=SWEEP_MESH, num_steps=SWEEP_STEPS)


def _discretization(problem: RDProblem, num_ranks: int) -> dict:
    """The cache-key identity of what the numerics compute.

    Everything that changes the communication schedule or the modeled
    compute is in here; the platform deliberately is not.
    """
    return {
        "app": RD_WORKLOAD.name,
        "mesh_shape": list(problem.mesh_shape),
        "order": problem.order,
        "bdf_order": problem.bdf_order,
        "dt": problem.dt,
        "num_steps": problem.num_steps,
        "preconditioner": SWEEP_PRECONDITIONER,
        "tol": SWEEP_TOL,
        "num_ranks": num_ranks,
    }


def _rank_main(comm, problem: RDProblem, charger: ModeledCompute) -> None:
    """One rank of the sweep workload (module-level: picklable)."""
    from repro.apps.reaction_diffusion import run_rd_distributed

    run_rd_distributed(
        comm,
        problem,
        preconditioner=SWEEP_PRECONDITIONER,
        tol=SWEEP_TOL,
        discard=0,
        compute_charger=charger,
    )
    return None


def capture_recording(
    problem: RDProblem | None = None,
    num_ranks: int = SWEEP_NUM_RANKS,
):
    """Execute the numerics once and return the frozen schedule.

    The capture runs on the generic test topology with unit-rate
    modeled compute, so the recorded charges *are* the work counts and
    any platform's rate divides them exactly as a full simulation on
    that platform would (:mod:`repro.perfmodel.compute`).
    """
    problem = problem if problem is not None else _sweep_problem()
    result = run_spmd(
        _rank_main,
        num_ranks,
        topology=default_topology(num_ranks),
        args=(problem, rd_modeled_compute(problem, num_ranks, rate=1.0)),
        record_schedule=True,
        real_timeout=300.0,
    )
    recording = result.recording
    if recording is None:  # pragma: no cover - the RD solve is recordable
        raise RuntimeError("sweep workload unexpectedly unrecordable")
    return recording.with_meta(
        workload=RD_WORKLOAD.name,
        num_ranks=num_ranks,
        discretization=_discretization(problem, num_ranks),
    )


def _platform_topology(spec, num_ranks: int):
    """The spec's topology sized for the run (on-demand specs scale)."""
    if spec.on_demand:
        return spec.topology(num_nodes=spec.nodes_for_ranks(num_ranks))
    return spec.topology()


def _full_sim(problem: RDProblem, num_ranks: int, topology, rate: float):
    """Full per-platform execution (the slow path replay short-cuts)."""
    return run_spmd(
        _rank_main,
        num_ranks,
        topology=topology,
        args=(problem, rd_modeled_compute(problem, num_ranks, rate=rate)),
        real_timeout=300.0,
    )


def _eval_simsweep(key: str, config: RunConfig, hub) -> dict[str, Any]:
    """Evaluate one platform point: replay when possible, else full sim."""
    from repro.obs.core import NULL_RANK_OBS

    view = hub.wall_view() if hub is not None else NULL_RANK_OBS
    spec = platform_by_name(key)
    problem = _sweep_problem()
    num_ranks = SWEEP_NUM_RANKS
    topology = _platform_topology(spec, num_ranks)
    rate = spec.core_flops()

    store = RecordingStore(config.cache_dir)
    rec_key = recording_key(
        RD_WORKLOAD.name,
        num_ranks,
        _discretization(problem, num_ranks),
        config.cache_token(),
    )
    recording = store.get(rec_key)
    if recording is None:
        with view.span("replay_capture", platform=key):
            recording = capture_recording(problem, num_ranks)
        store.put(rec_key, recording)
    replayed, bypass_reason = recording.compatible_with(topology)

    if replayed:
        with view.span("replay_walk", platform=key):
            result = replay_schedule(
                recording,
                topology=topology,
                compute_rate=rate,
                check_compatibility=False,
            )
    else:
        with view.span("replay_full_sim", platform=key):
            result = _full_sim(problem, num_ranks, topology, rate)

    return {
        "platform": key,
        "num_ranks": num_ranks,
        "makespan_s": result.max_time,
        "clocks": list(result.clocks),
        "total_bytes": result.total_bytes,
        "replayed": replayed,
        "bypass_reason": bypass_reason,
    }


@dataclass(frozen=True)
class SimSweepTable:
    """Assembled simsweep artifact: one executed row per platform."""

    num_ranks: int
    rows: tuple[dict, ...]


def _assemble_simsweep(values: dict[str, dict], config: RunConfig) -> SimSweepTable:
    from repro.broker.registry import _platform_names

    rows = tuple(values[name] for name in _platform_names(config))
    return SimSweepTable(num_ranks=SWEEP_NUM_RANKS, rows=rows)


def render_simsweep(table: SimSweepTable) -> str:
    """ASCII rendering of the executed sweep (platform, makespan, path)."""
    data = [
        [
            row["platform"],
            row["num_ranks"],
            row["makespan_s"],
            "replay" if row["replayed"] else
            f"full-sim ({row['bypass_reason']})" if row["bypass_reason"]
            else "full-sim",
        ]
        for row in table.rows
    ]
    return (
        f"Executed RD sweep at p={table.num_ranks} "
        "(record once, replay per platform)\n\n"
        + ascii_table(["platform", "ranks", "makespan[s]", "path"], data, fmt="{:.6g}")
    )
