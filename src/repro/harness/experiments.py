"""The paper's tables and figures as *point* functions.

Each artifact of the evaluation section is a sweep over independently
computable points — a platform column, a Table II row, one resilience
run — and this module holds the function that computes one point:

====== ================================ ===========================
T1     Table I — platform gap matrix    ``core.characterization``
§VI    porting effort per platform      :func:`porting_effort_for`
F4/F5  RD / NS weak scaling             :func:`weak_scaling_column`
T2     EC2 full vs mix assemblies       :func:`table2_row`
F6/F7  RD / NS per-iteration costs      :func:`cost_column`
R      mix assembly under spot reclaims :func:`resilience_report`
E      elastic re-brokering             :func:`elasticity_report`
====== ================================ ===========================

Which points make up an artifact, how they assemble into a table and
how the table renders is defined once, in :mod:`repro.broker.registry`;
:func:`repro.run` is the only way to produce a whole artifact.  Point
functions return values only — they never write files: an observed
run's exports are written once, by the sweep engine
(``RunResult.report.artifacts``).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass

import numpy as np

from repro.apps.workload import RD_WORKLOAD, workload_by_name
from repro.cloud.ec2 import EC2Service
from repro.cloud.instances import CC2_8XLARGE
from repro.cloud.placement import (
    CROSS_GROUP_BACKPLANE_PENALTY,
    CROSS_GROUP_BANDWIDTH_PENALTY,
    CROSS_GROUP_LATENCY_PENALTY,
)
from repro.core.characterization import platform_gaps
from repro.costs.model import cost_per_iteration
from repro.harness.config import DEFAULT_SEED, RESILIENCE_MESH, ResilienceParams
from repro.harness.results import PortingEffort
from repro.network.model import NetworkModel
from repro.network.topology import ClusterTopology
from repro.obs.core import NULL_RANK_OBS, Observability
from repro.perfmodel.calibration import time_scale_for
from repro.perfmodel.phases import PhaseModel
from repro.perfmodel.weak_scaling import weak_scaling_sweep
from repro.platforms.catalog import ec2_cc28xlarge, platform_by_name
from repro.platforms.provisioning import plan_provisioning

# The spot per-core rate of §VII.D: $0.54 / 16 cores.
SPOT_CORE_HOUR = CC2_8XLARGE.core_hourly(spot=True)

#: The extra column of Figures 6-7: EC2 iteration times at the spot rate.
MIX_COLUMN = "ec2 mix"


# ---------------------------------------------------------------------------
# T1 + §VI
# ---------------------------------------------------------------------------


def porting_effort_for(platform_name: str) -> PortingEffort:
    """§VI for one platform: the provisioning-plan summary (one sweep point)."""
    platform = platform_by_name(platform_name)
    plan = plan_provisioning(platform)
    gaps = platform_gaps([platform])[platform.name]
    return PortingEffort(
        platform=platform.name,
        total_hours=plan.total_hours,
        by_method={k: tuple(v) for k, v in gaps["by_method"].items()},
        missing_packages=tuple(gaps["missing"]),
        actions=tuple(str(a) for a in plan.actions),
    )


# ---------------------------------------------------------------------------
# F4 / F5 — weak scaling figures
# ---------------------------------------------------------------------------


def weak_scaling_column(workload_name: str, platform_name: str):
    """One platform's weak-scaling column (one sweep point of F4/F5)."""
    workload = workload_by_name(workload_name)
    return weak_scaling_sweep(workload, platform_by_name(platform_name))


# ---------------------------------------------------------------------------
# T2 — placement groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Row:
    """One row of Table II."""

    mpi: int
    nodes: int
    full_time_s: float
    full_real_cost: float
    mix_time_s: float
    mix_est_cost: float


def _mix_topology(num_nodes: int, seed: int) -> ClusterTopology:
    """Topology of a spot+paid assembly spread over placement groups.

    The cross-group penalty enters as an expected degradation of the
    effective internode link, weighted by the fraction of cross-group
    node pairs in the actual (simulated) assembly.
    """
    service = EC2Service(seed=seed)
    cluster = service.assemble_mix(num_nodes, seed=seed)
    frac = cluster.placement.cross_group_pair_fraction()
    base = ec2_cc28xlarge.interconnect
    effective = base.scaled(
        latency_factor=1.0 + CROSS_GROUP_LATENCY_PENALTY * frac,
        bandwidth_factor=1.0 - CROSS_GROUP_BANDWIDTH_PENALTY * frac,
    )
    backplane = ec2_cc28xlarge.backplane_bandwidth
    network = NetworkModel(
        effective,
        aggregate_backplane=(
            None if backplane is None
            else backplane * (1.0 - CROSS_GROUP_BACKPLANE_PENALTY * frac)
        ),
    )
    return ClusterTopology(num_nodes, ec2_cc28xlarge.cores_per_node, network)


def table2_row(num_ranks: int, seed: int) -> Table2Row:
    """One Table II row (one sweep point), deterministic in ``(p, seed)``.

    The row draws its measurement jitter from a generator seeded by
    ``(seed, p)`` — *not* from a shared sequential stream — so rows can
    be computed in any order, or in parallel worker processes, and still
    reproduce the serial table bit for bit.
    """
    p = num_ranks
    nodes = ec2_cc28xlarge.nodes_for_ranks(p)
    scale = time_scale_for(RD_WORKLOAD)
    rng = np.random.default_rng((seed, p))

    full_model = PhaseModel(RD_WORKLOAD, ec2_cc28xlarge, time_scale=scale)
    full_time = full_model.predict(p).total

    mix_model = PhaseModel(
        RD_WORKLOAD, ec2_cc28xlarge, time_scale=scale,
        topology=_mix_topology(nodes, seed=seed + p),
    )
    mix_time = mix_model.predict(p).total * float(rng.normal(1.0, 0.03))

    return Table2Row(
        mpi=p,
        nodes=nodes,
        full_time_s=full_time,
        full_real_cost=cost_per_iteration(ec2_cc28xlarge, p, full_time),
        mix_time_s=mix_time,
        mix_est_cost=cost_per_iteration(
            ec2_cc28xlarge, p, mix_time, core_hour_rate=SPOT_CORE_HOUR
        ),
    )


# ---------------------------------------------------------------------------
# F6 / F7 — cost figures
# ---------------------------------------------------------------------------


def cost_column(workload_name: str, column: str):
    """One column of F6/F7 (one sweep point): a platform, or the mix curve.

    The mix column uses the same iteration times as ec2 (Table II showed
    no significant performance difference) at the estimated all-spot
    rate — the paper's "cost-aware strategy for Amazon's resources".
    """
    workload = workload_by_name(workload_name)
    if column == MIX_COLUMN:
        return weak_scaling_sweep(
            workload, ec2_cc28xlarge, core_hour_rate=SPOT_CORE_HOUR
        )
    return weak_scaling_sweep(workload, platform_by_name(column))


# ---------------------------------------------------------------------------
# R — resilience under spot reclaims
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResilienceReport:
    """One volatile-market mix-assembly run, end to end.

    Execution (the resilient runner), billing (the interruption-aware
    bill) and prediction (the checkpoint/restart model) all consume the
    *same* seeded market trajectory, so the report's columns are
    mutually consistent by construction.
    """

    num_ranks: int
    num_steps: int
    spot_ranks: tuple[int, ...]
    restarts: int
    lost_steps: int
    executed_steps: int
    checkpoints_written: int
    overhead_fraction: float
    nodal_error: float
    interruptions: int
    reclaim_rounds: tuple[int, ...]
    mix_cost: float
    on_demand_cost: float
    model_overhead_fraction: float
    optimal_interval_s: float


def resilience_report(
    params: ResilienceParams, hub: Observability | None = None
) -> ResilienceReport:
    """The resilience artifact body (one sweep point).

    The defaults model the §VII.B nightmare scenario: a market spiking
    every other hour, a mostly-spot assembly, one time step per billing
    interval (one hour), 30 s per checkpoint and 120 s per restart.  One
    market, seeded 5, drives three views of the same run:

    1. the :class:`~repro.resilience.runner.ResilientRunner` executes the RD
       loop with reclaim-derived rank kills and restarts from
       checkpoints (restart statistics, verified physics);
    2. the cluster's interruption-aware billing accrues the dollars,
       including wasted intervals and on-demand replacements;
    3. the :class:`~repro.perfmodel.resilience.CheckpointRestartModel`
       predicts the overhead from the same failure rate.
    """
    from repro.apps.reaction_diffusion import RDProblem
    from repro.cloud.spot import SpotMarket
    from repro.perfmodel.resilience import (
        CheckpointRestartModel,
        failure_rate_from_market,
    )
    from repro.resilience.faults import FaultPlan
    from repro.resilience.runner import ResilientRunner

    seed, step_hours = 5, 1.0
    market = SpotMarket(
        CC2_8XLARGE, spike_probability=params.spike_probability, seed=seed
    )
    service = EC2Service(spot_market=market, seed=seed)
    cluster = service.assemble_mix(params.num_ranks, seed=seed)
    spot_ranks = tuple(
        i for i, inst in enumerate(cluster.instances) if inst.pricing == "spot"
    )
    # Priced before the run: a failure rate the model cannot price (a
    # reclaim more often than once per interval) fails the point before
    # any rank starts.
    run_seconds = params.num_steps * step_hours * 3600.0
    interval_s = step_hours * 3600.0
    model = CheckpointRestartModel(
        checkpoint_seconds=30.0,
        restart_seconds=120.0,
        failure_rate_per_hour=failure_rate_from_market(market, len(spot_ranks)),
    )
    model_overhead_fraction = model.expected_overhead_fraction(
        run_seconds, interval_s)

    plan = FaultPlan.from_spot_market(
        market, params.num_steps, step_hours, list(spot_ranks), seed=seed
    )
    problem = RDProblem(mesh_shape=RESILIENCE_MESH, num_steps=params.num_steps)
    checkpoint_dir = params.checkpoint_dir
    if checkpoint_dir is None:
        tmp = tempfile.TemporaryDirectory()
        checkpoint_dir = tmp.name
    runner = ResilientRunner(
        problem,
        params.num_ranks,
        plan=plan,
        checkpoint_every=2,
        checkpoint_dir=checkpoint_dir,
        max_retries=len(spot_ranks) + 2,
        obs=hub,
    )
    result = runner.run()

    outcome = cluster.run_with_interruptions(
        run_seconds, market, seed=seed, checkpoint_interval_s=interval_s,
    )
    cluster.terminate()
    on_demand_cost = (
        params.num_ranks * CC2_8XLARGE.on_demand_hourly * run_seconds / 3600.0
    )

    return ResilienceReport(
        num_ranks=params.num_ranks,
        num_steps=params.num_steps,
        spot_ranks=spot_ranks,
        restarts=result.stats.restarts,
        lost_steps=result.stats.lost_steps,
        executed_steps=result.stats.executed_steps,
        checkpoints_written=result.stats.checkpoints_written,
        overhead_fraction=result.stats.overhead_fraction,
        nodal_error=result.nodal_error,
        interruptions=outcome.interruptions,
        reclaim_rounds=outcome.reclaim_rounds,
        mix_cost=outcome.cost,
        on_demand_cost=on_demand_cost,
        model_overhead_fraction=model_overhead_fraction,
        optimal_interval_s=model.optimal_interval_seconds(),
    )


# ---------------------------------------------------------------------------
# E — elastic re-brokering under spot reclaims
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElasticityReport:
    """Table II's "elastic" extension row plus the malleability proof.

    The first half is the volatile-market scenario of
    :func:`repro.broker.assembly.volatile_market_request` run through
    the :class:`~repro.broker.assembly.ElasticBroker`: realized elastic
    cost and wall time against the two static answers a one-shot broker
    could have given (a rigid all-spot run replayed on the same reclaim
    trajectory, and failure-free on-demand).  The second half is the
    mechanism that makes the elastic answers *legal*: a malleable RD run
    shrunk mid-flight via :func:`repro.resilience.malleable.repartition_state`,
    byte-compared against the fixed-width run it must reproduce.
    """

    num_ranks: int
    num_iterations: int
    nodes: int
    events: int
    actions: tuple[str, ...]
    elastic_cost: float
    elastic_wall_hours: float
    met_deadline: bool
    beats_baselines: bool
    static_all_spot_cost: float
    static_all_spot_wall_hours: float
    static_on_demand_cost: float
    static_on_demand_wall_hours: float
    repartition_p_old: int
    repartition_p_new: int
    repartition_moved_fraction: float
    trajectory_matches: bool

    def table2_elastic_row(self) -> dict:
        """The "elastic" row extending Table II (§VII.D)."""
        return {
            "assembly": "elastic",
            "mpi": self.num_ranks,
            "nodes": self.nodes,
            "time_h": self.elastic_wall_hours,
            "cost": self.elastic_cost,
            "static_spot_cost": self.static_all_spot_cost,
            "static_ondemand_cost": self.static_on_demand_cost,
        }


def elasticity_report(
    seed: int = DEFAULT_SEED, hub: "Observability | None" = None
) -> ElasticityReport:
    """The elasticity artifact body (one sweep point).

    Deterministic in ``seed``: the broker half replays the seeded
    reclaim trajectory, and the malleable half is bit-deterministic by
    construction (``docs/elasticity.md``).  The malleable proof runs the
    RD app twice — once at a fixed width, once shrinking half way
    through — and reports whether the solutions agree *byte for byte*.
    """
    from repro.apps.reaction_diffusion import RDProblem
    from repro.broker.assembly import ElasticBroker, volatile_market_request
    from repro.resilience.malleable import run_malleable

    view = NULL_RANK_OBS if hub is None else hub.wall_view()
    with view.span("elasticity", seed=seed):
        request = volatile_market_request(seed=seed)
        report = ElasticBroker(request, obs=hub).run()

        problem = RDProblem(mesh_shape=(4, 4, 4), num_steps=6)
        with tempfile.TemporaryDirectory() as scratch:
            with view.span("malleable_fixed", width=2):
                fixed = run_malleable(problem, [(2, 6)], scratch + "/fixed")
            with view.span("malleable_shrink", p_old=4, p_new=2):
                shrunk = run_malleable(
                    problem, [(4, 3), (2, 3)], scratch + "/shrink"
                )
        repartition = shrunk.repartitions[0]
        matches = (
            fixed.solution.tobytes() == shrunk.solution.tobytes()
            and fixed.t == shrunk.t
        )

    return ElasticityReport(
        num_ranks=request.num_ranks,
        num_iterations=request.num_iterations,
        nodes=report.nodes,
        events=len(report.decisions),
        actions=tuple(d.action for d in report.decisions),
        elastic_cost=report.cost_dollars,
        elastic_wall_hours=report.wall_hours,
        met_deadline=report.met_deadline,
        beats_baselines=report.beats_baselines,
        static_all_spot_cost=report.static_all_spot_cost,
        static_all_spot_wall_hours=report.static_all_spot_wall_hours,
        static_on_demand_cost=report.static_on_demand_cost,
        static_on_demand_wall_hours=report.static_on_demand_wall_hours,
        repartition_p_old=repartition.p_old,
        repartition_p_new=repartition.p_new,
        repartition_moved_fraction=repartition.moved_fraction,
        trajectory_matches=matches,
    )
