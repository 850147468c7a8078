"""The assembly broker: where should this assembly run?

The paper's central practical question — given platforms that differ in
cost, scheduler, availability and interconnect, which one (or which
*mix*) should host a run — answered by searching a portfolio of
candidate placements and scoring each under the user's deadline, budget
and risk constraints (the HPC-cloud brokering problem of Netto et al.,
arXiv:1710.08731).

Candidates come from :mod:`repro.platforms.catalog`, each priced by
:func:`repro.core.deployment.deploy_and_run` (expected queue wait,
PhaseModel compute, platform billing): one per batch/on-demand
platform, plus the paper's §VII.D **spot mix** — an EC2
assembly filled from the spot market and topped up on demand, priced at
the blended rate and inflated by checkpoint/restart overhead at Young's
optimal interval (:mod:`repro.perfmodel.resilience`).  Each candidate
becomes an :class:`AssemblyPlan` with a per-phase time/cost breakdown:

====================  =====================================================
provision             porting effort (one-off; dollars via the §VI rate)
queue                 scheduler wait (availability model expectation)
compute               PhaseModel iteration time x iteration count
checkpoint+rework     spot only: Young-interval overhead + expected rework
====================  =====================================================

Plans are ranked by a weighted score over total cost, time-to-solution
and interruption risk, cost and time normalized by the best feasible
plan's; infeasible or constraint-violating plans sort last with the
reason attached.  This ranked portfolio is the repository's only
platform scorer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.apps.workload import workload_by_name
from repro.cloud.instances import CC2_8XLARGE
from repro.cloud.spot import SpotMarket
from repro.core.deployment import DeploymentReport, deploy_and_run
from repro.costs.model import DEVELOPER_HOURLY_RATE, PlatformCostModel
from repro.errors import BrokerError, PlatformError
from repro.perfmodel.resilience import (
    CheckpointRestartModel,
    checkpoint_interval,
    expected_cost_to_go,
)
from repro.platforms.catalog import all_platforms, ec2_cc28xlarge
from repro.platforms.spec import PlatformSpec

#: Name of the synthetic spot-mix candidate (the paper's §VII.D strategy).
SPOT_MIX = "ec2-mix"

#: Default expected spare cc2.8xlarge capacity in one AZ (the market
#: model's mean): large spot requests only partially fill (§VII.B).
DEFAULT_SPOT_POOL = 40.0


@dataclass(frozen=True)
class BrokerRequest:
    """One brokering question: the job, the constraints, the priorities."""

    app: str = "rd"
    num_ranks: int = 64
    num_iterations: int = 100
    deadline_s: float | None = None
    budget_dollars: float | None = None
    max_interruption_probability: float | None = None
    # Spot-market shape for the mix candidate.
    spot_spike_probability: float = 0.06
    spot_pool_mean: float = DEFAULT_SPOT_POOL
    checkpoint_seconds: float = 30.0
    restart_seconds: float = 120.0
    # Scoring priorities (relative; normalized per attribute).
    cost_weight: float = 1.0
    time_weight: float = 0.25
    risk_weight: float = 0.25
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_ranks < 1 or self.num_iterations < 1:
            raise BrokerError("num_ranks and num_iterations must be >= 1")
        if min(self.cost_weight, self.time_weight, self.risk_weight) < 0:
            raise BrokerError("scoring weights must be non-negative")
        if not 0.0 <= self.spot_spike_probability <= 1.0:
            raise BrokerError("spot_spike_probability must be in [0, 1]")
        if min(self.checkpoint_seconds, self.restart_seconds) < 0:
            raise BrokerError("checkpoint and restart seconds must be >= 0")


@dataclass(frozen=True)
class PlanPhase:
    """One line of a plan's breakdown."""

    name: str
    time_s: float
    cost_dollars: float
    note: str = ""


@dataclass(frozen=True)
class AssemblyPlan:
    """One ranked placement candidate with its full breakdown."""

    name: str
    platform: str
    strategy: str  # "batch" | "on-demand" | "spot-mix"
    num_ranks: int
    num_iterations: int
    nodes: int
    spot_nodes: int
    phases: tuple[PlanPhase, ...]
    launch_command: str
    feasible: bool
    reason: str = ""
    interruption_probability: float = 0.0
    expected_reclaims: float = 0.0
    checkpoint_interval_s: float | None = None
    est_cost_all_spot: float | None = None  # Table II's 'est. cost' view
    meets_deadline: bool = True
    within_budget: bool = True
    within_risk: bool = True
    score: float = math.inf

    @property
    def time_to_solution_s(self) -> float:
        """Wall seconds from submission to results (provisioning excluded)."""
        return sum(p.time_s for p in self.phases if p.name != "provision")

    @property
    def cost_dollars(self) -> float:
        """Total run dollars (provisioning effort dollars excluded)."""
        return sum(p.cost_dollars for p in self.phases if p.name != "provision")

    @property
    def acceptable(self) -> bool:
        """Feasible and inside every stated constraint."""
        return (
            self.feasible
            and self.meets_deadline
            and self.within_budget
            and self.within_risk
        )

    def phase(self, name: str) -> PlanPhase:
        """Look one phase up by name."""
        for p in self.phases:
            if p.name == name:
                return p
        raise BrokerError(f"plan {self.name!r} has no phase {name!r}")

    def summary(self) -> str:
        """One line for the ranked table."""
        if not self.feasible:
            return f"{self.name}: infeasible - {self.reason}"
        flags = []
        if not self.meets_deadline:
            flags.append("misses deadline")
        if not self.within_budget:
            flags.append("over budget")
        if not self.within_risk:
            flags.append("too risky")
        note = f"  [{'; '.join(flags)}]" if flags else ""
        return (
            f"{self.name}: {self.nodes} nodes "
            f"({self.spot_nodes} spot) | "
            f"time {self.time_to_solution_s / 3600.0:.2f} h | "
            f"cost ${self.cost_dollars:.2f} | "
            f"P(interrupt) {self.interruption_probability:.2f}{note}"
        )


@dataclass(frozen=True)
class BrokerReport:
    """The broker's answer: plans ranked best-first."""

    request: BrokerRequest
    plans: tuple[AssemblyPlan, ...]

    @property
    def best(self) -> AssemblyPlan:
        """The top-ranked acceptable plan."""
        for plan in self.plans:
            if plan.acceptable:
                return plan
        raise BrokerError(
            "no assembly satisfies the request "
            f"({self.request.num_ranks} ranks of {self.request.app!r})"
        )


def _infeasible(name: str, platform: PlatformSpec, strategy: str,
                request: BrokerRequest, reason: str) -> AssemblyPlan:
    return AssemblyPlan(
        name=name,
        platform=platform.name,
        strategy=strategy,
        num_ranks=request.num_ranks,
        num_iterations=request.num_iterations,
        nodes=0,
        spot_nodes=0,
        phases=(),
        launch_command="",
        feasible=False,
        reason=reason,
        meets_deadline=False,
        within_budget=False,
    )


def _base_plan(
    platform: PlatformSpec, request: BrokerRequest, name: str, strategy: str
) -> AssemblyPlan | tuple[DeploymentReport, tuple[PlanPhase, ...]]:
    """Price the job on ``platform`` through :func:`deploy_and_run`.

    Returns either an infeasible :class:`AssemblyPlan` carrying the
    platform's refusal, or the deployment plus its provision/queue
    phases for the caller to extend.
    """
    try:
        deployed = deploy_and_run(
            platform, workload_by_name(request.app),
            request.num_ranks, request.num_iterations,
        )
    except PlatformError as exc:
        return _infeasible(name, platform, strategy, request, str(exc))
    hours = deployed.provisioning.total_hours
    phases = (
        PlanPhase(
            "provision", 0.0, hours * DEVELOPER_HOURLY_RATE,
            f"one-off porting effort ({hours:.1f} man-h), "
            "excluded from deadline",
        ),
        PlanPhase(
            "queue", deployed.queue_wait_s, 0.0,
            f"availability model, {deployed.nodes} nodes",
        ),
    )
    return deployed, phases


def _finish(plan: AssemblyPlan, request: BrokerRequest) -> AssemblyPlan:
    """Apply the request's constraints to a feasible plan."""
    return replace(
        plan,
        meets_deadline=(
            request.deadline_s is None
            or plan.time_to_solution_s <= request.deadline_s
        ),
        within_budget=(
            request.budget_dollars is None
            or plan.cost_dollars <= request.budget_dollars
        ),
        within_risk=(
            request.max_interruption_probability is None
            or plan.interruption_probability
            <= request.max_interruption_probability
        ),
    )


def _platform_plan(platform: PlatformSpec, request: BrokerRequest) -> AssemblyPlan:
    """A pure single-platform candidate (batch queue or EC2 on demand)."""
    strategy = "on-demand" if platform.on_demand else "batch"
    base = _base_plan(platform, request, platform.name, strategy)
    if isinstance(base, AssemblyPlan):
        return base
    deployed, phases = base
    phases = phases + (
        PlanPhase(
            "compute", deployed.runtime_s, deployed.run_cost_dollars,
            f"{request.num_iterations} iterations at the platform rate",
        ),
    )
    return _finish(
        AssemblyPlan(
            name=platform.name,
            platform=platform.name,
            strategy=strategy,
            num_ranks=request.num_ranks,
            num_iterations=request.num_iterations,
            nodes=deployed.nodes,
            spot_nodes=0,
            phases=phases,
            launch_command=deployed.launch_command,
            feasible=True,
        ),
        request,
    )


def _spot_nodes(request: BrokerRequest, nodes: int) -> int:
    """Nodes the spot market fills, in expectation (§VII.B)."""
    return min(nodes, int(round(request.spot_pool_mean)))


def _checkpoint_model(
    request: BrokerRequest, spot_nodes: int
) -> CheckpointRestartModel:
    """Checkpoint/restart model while ``spot_nodes`` are reclaim-exposed."""
    return CheckpointRestartModel(
        checkpoint_seconds=request.checkpoint_seconds,
        restart_seconds=request.restart_seconds,
        failure_rate_per_hour=request.spot_spike_probability * spot_nodes,
    )


def _spot_mix_plan(request: BrokerRequest) -> AssemblyPlan:
    """The §VII.D candidate: spot-filled EC2 assembly, on-demand top-up.

    Spot fulfillment follows the market model's expectation (§VII.B:
    full spot assemblies never materialized, so requests near the spare
    pool fill partially); reclaim risk turns into checkpoint/restart
    overhead at Young's optimal interval, and the blended node rate
    prices spot and on-demand slots separately.  The Table II
    'est. cost' view — the whole assembly priced all-spot — is kept on
    the plan for comparison against the paper.
    """
    platform = ec2_cc28xlarge
    base = _base_plan(platform, request, SPOT_MIX, "spot-mix")
    if isinstance(base, AssemblyPlan):
        return base
    deployed, phases = base
    compute_s, nodes = deployed.runtime_s, deployed.nodes

    spot_nodes = _spot_nodes(request, nodes)
    ondemand_nodes = nodes - spot_nodes
    model = _checkpoint_model(request, spot_nodes)
    failure_rate_per_hour = model.failure_rate_per_hour
    checkpoint_interval_s = checkpoint_interval(model, compute_s)
    overhead_s = 0.0
    if checkpoint_interval_s is not None:
        overhead_s = (
            model.expected_wall_seconds(compute_s, checkpoint_interval_s)
            - compute_s
        )

    wall_s = compute_s + overhead_s
    spot_rate = CC2_8XLARGE.core_hourly(spot=True)
    ondemand_rate = platform.cost_per_core_hour
    cost_model = PlatformCostModel.for_platform(platform)
    spot_ranks = min(request.num_ranks, spot_nodes * platform.cores_per_node)
    ondemand_ranks = request.num_ranks - spot_ranks
    compute_cost = 0.0
    if spot_ranks:
        compute_cost += cost_model.with_rate(spot_rate).cost(spot_ranks, compute_s)
    if ondemand_ranks:
        compute_cost += cost_model.with_rate(ondemand_rate).cost(
            ondemand_ranks, compute_s
        )
    overhead_cost = 0.0
    if overhead_s:
        blended = compute_cost / compute_s  # $/s for the whole assembly
        overhead_cost = blended * overhead_s

    run_hours = wall_s / 3600.0
    interruption_probability = (
        1.0 - math.exp(-failure_rate_per_hour * run_hours) if spot_nodes else 0.0
    )
    expected_reclaims = failure_rate_per_hour * run_hours

    est_all_spot = cost_model.with_rate(spot_rate).cost(request.num_ranks, compute_s)

    phases = phases + (
        PlanPhase(
            "compute", compute_s, compute_cost,
            f"{spot_nodes} spot + {ondemand_nodes} on-demand nodes, blended rate",
        ),
        PlanPhase(
            "checkpoint+rework", overhead_s, overhead_cost,
            "Young-interval checkpoints + expected reclaim rework",
        ),
    )
    return _finish(
        AssemblyPlan(
            name=SPOT_MIX,
            platform=platform.name,
            strategy="spot-mix",
            num_ranks=request.num_ranks,
            num_iterations=request.num_iterations,
            nodes=nodes,
            spot_nodes=spot_nodes,
            phases=phases,
            launch_command=deployed.launch_command,
            feasible=True,
            interruption_probability=interruption_probability,
            expected_reclaims=expected_reclaims,
            checkpoint_interval_s=checkpoint_interval_s,
            est_cost_all_spot=est_all_spot,
        ),
        request,
    )


def _score(plans: list[AssemblyPlan], request: BrokerRequest) -> list[AssemblyPlan]:
    """Weighted best-normalized score; acceptable plans first, then score.

    Cost and time are normalized by the best *feasible* plan's.
    Feasibility reads neither the budget, the deadline nor the risk cap,
    so relaxing a constraint changes which plans are acceptable but no
    plan's score, and cannot reorder two plans it already accepted.
    Equal scores go to the cheaper plan, then the faster, then the
    earlier in the portfolio (the platforms' order, then the spot mix).
    """
    feasible = [p for p in plans if p.feasible]
    if feasible:
        best_cost = max(min(p.cost_dollars for p in feasible), 1e-9)
        best_time = max(min(p.time_to_solution_s for p in feasible), 1e-9)
    scored = [
        replace(plan, score=(
            request.cost_weight * plan.cost_dollars / best_cost
            + request.time_weight * plan.time_to_solution_s / best_time
            + request.risk_weight * plan.interruption_probability
        )) if plan.feasible else plan
        for plan in plans
    ]
    return sorted(
        scored,
        key=lambda p: (
            not p.acceptable, not p.feasible, p.score, p.cost_dollars,
            p.time_to_solution_s,
        ),
    )


def broker_assemblies(request: BrokerRequest) -> BrokerReport:
    """Search the platform portfolio and return ranked assembly plans."""
    plans = [_platform_plan(p, request) for p in all_platforms()]
    plans.append(_spot_mix_plan(request))
    return BrokerReport(request=request, plans=tuple(_score(plans, request)))


def section_7d_request() -> BrokerRequest:
    """The paper's §VII.D scenario as a brokering request.

    RD at the largest assembly the authors instantiated (1000 ranks,
    100 iterations, a 12-hour deadline): the on-premise
    and grid machines cannot host it, so the choice is EC2 on demand
    versus the spot/on-demand mix — which wins on cost at ~the spot
    discount while meeting any reasonable deadline (Table II).
    """
    return BrokerRequest(
        app="rd", num_ranks=1000, num_iterations=100, deadline_s=12 * 3600.0
    )


# ---------------------------------------------------------------------------
# Elastic re-brokering under spot reclaims (docs/elasticity.md)
# ---------------------------------------------------------------------------

#: The three actions the elastic broker chooses among at a reclaim event.
ELASTIC_ACTIONS = ("continue-degraded", "shrink", "migrate-and-expand")


@dataclass(frozen=True)
class ElasticOption:
    """One candidate action at a reclaim event, scored to completion."""

    action: str
    expected_wall_s: float
    expected_dollars: float
    meets_deadline: bool
    spot_nodes: int
    ondemand_nodes: int
    note: str = ""

    @property
    def feasible(self) -> bool:
        """Whether the option can finish at all."""
        return math.isfinite(self.expected_dollars)


@dataclass(frozen=True)
class ElasticDecision:
    """One re-plan: the reclaim that triggered it and the scored options."""

    event: int
    hour: float
    reclaimed: tuple[int, ...]
    survivors: int
    action: str
    options: tuple[ElasticOption, ...]

    def option(self, action: str) -> ElasticOption:
        """Look one scored option up by action name."""
        for opt in self.options:
            if opt.action == action:
                return opt
        raise BrokerError(f"decision has no option {action!r}")

    @property
    def chosen(self) -> ElasticOption:
        """The option the broker committed to."""
        return self.option(self.action)

    def to_dict(self) -> dict:
        return {
            "event": self.event,
            "hour": self.hour,
            "reclaimed": list(self.reclaimed),
            "survivors": self.survivors,
            "action": self.action,
            "options": [
                {
                    "action": o.action,
                    "expected_wall_h": o.expected_wall_s / 3600.0,
                    "expected_dollars": o.expected_dollars,
                    "meets_deadline": o.meets_deadline,
                    "spot_nodes": o.spot_nodes,
                    "ondemand_nodes": o.ondemand_nodes,
                }
                for o in self.options
            ],
        }


@dataclass(frozen=True)
class ElasticReport:
    """Outcome of one elastic run against a sampled reclaim trajectory.

    ``cost_dollars``/``wall_hours`` are the *realized* totals of the
    simulated elastic run.  The two static baselines answer "what if
    the broker had planned once and never re-planned": all-spot is a
    rigid job replayed against the *same* reclaim trajectory (forced
    ``continue-degraded``; infinite when it loses every node), all
    on-demand is failure-free at full price.  The §VII.D acceptance
    inequality is ``cost < both baselines`` while the deadline holds.
    """

    request: BrokerRequest
    decisions: tuple[ElasticDecision, ...]
    cost_dollars: float
    wall_hours: float
    met_deadline: bool
    static_all_spot_cost: float
    static_all_spot_wall_hours: float
    static_on_demand_cost: float
    static_on_demand_wall_hours: float
    nodes: int
    final_spot_nodes: int
    final_ondemand_nodes: int

    @property
    def beats_baselines(self) -> bool:
        """The acceptance inequality of the volatile-market scenario."""
        return (
            self.cost_dollars < self.static_all_spot_cost
            and self.cost_dollars < self.static_on_demand_cost
        )

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "cost_dollars": self.cost_dollars,
            "wall_hours": self.wall_hours,
            "met_deadline": self.met_deadline,
            "beats_baselines": self.beats_baselines,
            "static_all_spot_cost": self.static_all_spot_cost,
            "static_all_spot_wall_hours": self.static_all_spot_wall_hours,
            "static_on_demand_cost": self.static_on_demand_cost,
            "static_on_demand_wall_hours": self.static_on_demand_wall_hours,
            "final_spot_nodes": self.final_spot_nodes,
            "final_ondemand_nodes": self.final_ondemand_nodes,
            "decisions": [d.to_dict() for d in self.decisions],
        }


@dataclass
class ElasticBroker:
    """Re-evaluate the placement portfolio at every spot reclaim.

    The static broker (:func:`broker_assemblies`) answers §VII.D once,
    up front.  This closes ROADMAP item 3's loop: subscribed to the
    shared :meth:`~repro.cloud.spot.SpotMarket.reclaim_sampler`, the
    elastic broker simulates the run in billing-interval rounds and, at
    each reclaim event, re-scores three actions with
    :func:`~repro.perfmodel.resilience.expected_cost_to_go`:

    * **continue-degraded** — restart on the survivors keeping the old
      decomposition (no repartition stall, but the reclaimed subdomains
      oversubscribe the survivors, so progress drops by the imbalance
      factor);
    * **shrink** — malleable repartition onto the survivors
      (:func:`repro.resilience.malleable.run_malleable` lifecycle: pay the
      repartition stall, then run balanced at the smaller width);
    * **migrate-and-expand** — checkpoint, abandon the spot assembly,
      and resume at full width on on-demand instances (pay the
      migration stall, then zero reclaim exposure).

    The cheapest deadline-meeting option wins (the fastest one when
    none meets it).  Each decision lands as an obs span plus a
    streaming ``replan`` row, so ``repro tail`` can watch an elastic
    run live.  Everything is deterministic in the request's seed.
    """

    request: BrokerRequest
    interval_hours: float = 1.0
    repartition_seconds: float = 60.0
    migration_seconds: float = 600.0
    market: SpotMarket | None = None
    obs: object | None = None
    _max_rounds: int = field(default=10_000, repr=False)

    def __post_init__(self) -> None:
        if self.interval_hours <= 0:
            raise BrokerError("interval_hours must be positive")
        if self.market is None:
            self.market = SpotMarket(
                CC2_8XLARGE,
                spare_capacity_mean=max(self.request.spot_pool_mean, 1.0),
                spike_probability=self.request.spot_spike_probability,
                seed=self.request.seed,
            )

    # -- per-reclaim option scoring --------------------------------------

    def _score_options(
        self,
        remaining_work: float,
        elapsed_s: float,
        hosting: int,
        survivors: int,
        ondemand_nodes: int,
        nodes: int,
    ) -> tuple[ElasticOption, ...]:
        """Score the three actions from this event to completion."""
        request = self.request
        spot_hr = CC2_8XLARGE.typical_spot_hourly
        od_hr = ec2_cc28xlarge.cost_per_core_hour * ec2_cc28xlarge.cores_per_node

        def option(action, rate, spot, od, switch, note=""):
            togo = expected_cost_to_go(
                remaining_work_node_seconds=remaining_work,
                progress_rate_nodes=rate,
                spot_nodes=spot,
                ondemand_nodes=od,
                spot_node_hourly=spot_hr,
                ondemand_node_hourly=od_hr,
                spike_probability_per_hour=request.spot_spike_probability,
                checkpoint_seconds=request.checkpoint_seconds,
                restart_seconds=request.restart_seconds,
                switch_seconds=switch,
            )
            finish_s = elapsed_s + togo["wall_seconds"]
            meets = (
                request.deadline_s is None or finish_s <= request.deadline_s
            ) and togo["feasible"]
            return ElasticOption(
                action=action,
                expected_wall_s=togo["wall_seconds"],
                expected_dollars=togo["dollars"],
                meets_deadline=meets,
                spot_nodes=spot,
                ondemand_nodes=od,
                note=note,
            )

        active = survivors + ondemand_nodes
        degraded_rate = (
            hosting / math.ceil(hosting / active) if active else 0.0
        )
        return (
            option(
                "continue-degraded",
                degraded_rate,
                survivors,
                ondemand_nodes,
                request.restart_seconds,
                f"{hosting} subdomains on {active} nodes",
            ),
            option(
                "shrink",
                float(active),
                survivors,
                ondemand_nodes,
                request.restart_seconds + self.repartition_seconds,
                f"repartition {hosting} -> {active}",
            ),
            option(
                "migrate-and-expand",
                float(nodes),
                0,
                nodes,
                request.restart_seconds + self.migration_seconds,
                f"all {nodes} nodes on demand",
            ),
        )

    @staticmethod
    def _choose(options: tuple[ElasticOption, ...]) -> str:
        """Cheapest deadline-meeting option; fastest when none meets it."""
        meeting = [o for o in options if o.meets_deadline]
        if meeting:
            return min(meeting, key=lambda o: (o.expected_dollars, o.action)).action
        return min(options, key=lambda o: (o.expected_wall_s, o.action)).action

    # -- the round-based simulation ---------------------------------------

    def run(self) -> ElasticReport:
        """Simulate the elastic run and its rigid baselines.

        Both the elastic run and the static all-spot baseline face the
        *same* seeded reclaim trajectory, so the comparison is
        realization-for-realization: the baseline is a rigid job that
        can only restart on the survivors with its original
        decomposition (forced ``continue-degraded``), while the elastic
        run re-plans.  The on-demand baseline is failure-free by
        construction.
        """
        request = self.request
        platform = ec2_cc28xlarge
        try:
            deployed = deploy_and_run(
                platform, workload_by_name(request.app),
                request.num_ranks, request.num_iterations,
            )
        except PlatformError as exc:
            raise BrokerError(f"{platform.name}: {exc}") from None
        nodes, compute_s = deployed.nodes, deployed.runtime_s
        od_hr = platform.cost_per_core_hour * platform.cores_per_node
        spot_nodes = _spot_nodes(request, nodes)

        decisions, cost, elapsed, f_spot, f_od = self._simulate(
            None, nodes, compute_s, spot_nodes, emit=True
        )
        _, rigid_cost, rigid_elapsed, _, _ = self._simulate(
            "continue-degraded", nodes, compute_s, spot_nodes, emit=False
        )
        met_deadline = (
            request.deadline_s is None or elapsed <= request.deadline_s
        )
        return ElasticReport(
            request=request,
            decisions=tuple(decisions),
            cost_dollars=cost,
            wall_hours=elapsed / 3600.0,
            met_deadline=met_deadline,
            static_all_spot_cost=rigid_cost,
            static_all_spot_wall_hours=rigid_elapsed / 3600.0,
            static_on_demand_cost=nodes * od_hr * compute_s / 3600.0,
            static_on_demand_wall_hours=compute_s / 3600.0,
            nodes=nodes,
            final_spot_nodes=f_spot,
            final_ondemand_nodes=f_od,
        )

    def _simulate(
        self,
        policy: str | None,
        nodes: int,
        compute_s: float,
        spot_nodes: int,
        emit: bool,
    ) -> tuple[list[ElasticDecision], float, float, int, int]:
        """One policy's realized run against the seeded reclaim trajectory.

        ``policy=None`` re-plans at every reclaim; a fixed action name
        simulates a rigid baseline (``"continue-degraded"`` is the
        static all-spot plan that cannot change shape).  Returns
        ``(decisions, cost_dollars, wall_seconds, spot, ondemand)`` —
        infinite cost and wall when a rigid run loses every node.
        """
        if policy is not None and policy not in ELASTIC_ACTIONS:
            raise BrokerError(f"unknown elastic policy {policy!r}")
        request = self.request
        work = compute_s * nodes  # node-seconds of useful work
        spot_hr = CC2_8XLARGE.typical_spot_hourly
        od_hr = ec2_cc28xlarge.cost_per_core_hour * ec2_cc28xlarge.cores_per_node
        ondemand_nodes = nodes - spot_nodes
        sampler = self.market.reclaim_sampler(
            spot_nodes, self.interval_hours, seed=request.seed
        )
        view, sink = _elastic_obs(self.obs if emit else None)
        interval_s = self.interval_hours * 3600.0
        hosting = nodes  # width of the current decomposition
        migrated = spot_nodes == 0
        remaining = work
        elapsed = 0.0
        cost = 0.0
        pause = 0.0  # transition stall charged at the next round's start
        decisions: list[ElasticDecision] = []
        tau_cache: dict[int, float | None] = {}

        def tau_for(exposed: int) -> float | None:
            """Checkpoint interval while ``exposed`` nodes are spot (None:
            no checkpoints) — the static mix plan's rule."""
            if exposed not in tau_cache:
                tau_cache[exposed] = checkpoint_interval(
                    _checkpoint_model(request, exposed), compute_s
                )
            return tau_cache[exposed]

        def overhead_factor(exposed: int) -> float:
            """Young checkpoint overhead ``1 + c/tau`` while spot-exposed."""
            tau = tau_for(exposed)
            return 1.0 if tau is None else 1.0 + request.checkpoint_seconds / tau

        for _round in range(self._max_rounds):
            active = spot_nodes + ondemand_nodes
            if active <= 0:
                # A rigid run that lost every node never finishes.
                return decisions, math.inf, math.inf, 0, ondemand_nodes
            rate = (
                hosting / math.ceil(hosting / active)
                if hosting > active else float(active)
            )
            rate /= overhead_factor(spot_nodes)
            hourly = spot_nodes * spot_hr + ondemand_nodes * od_hr
            avail = max(0.0, interval_s - pause)
            step_work = rate * avail
            if step_work >= remaining:
                used = pause + remaining / rate
                cost += hourly * used / 3600.0
                elapsed += used
                remaining = 0.0
                break
            remaining -= step_work
            cost += hourly * interval_s / 3600.0
            elapsed += interval_s
            pause = 0.0
            if migrated:
                continue
            reclaimed = sampler.next_round()
            if not reclaimed:
                continue
            # Work since the last checkpoint is lost whatever we do next:
            # half the in-use interval, in expectation (Young's rework).
            tau = tau_for(spot_nodes)
            rework = 0.0 if tau is None else 0.5 * tau
            survivors = len(sampler.alive_slots)
            options = self._score_options(
                remaining, elapsed, hosting, survivors, ondemand_nodes, nodes
            )
            action = policy if policy is not None else self._choose(options)
            decision = ElasticDecision(
                event=len(decisions),
                hour=elapsed / 3600.0,
                reclaimed=tuple(int(r) for r in reclaimed),
                survivors=survivors,
                action=action,
                options=options,
            )
            decisions.append(decision)
            with view.span(
                "replan", event=decision.event, action=action,
                survivors=survivors,
            ):
                if action == "continue-degraded":
                    pause = rework + request.restart_seconds
                    spot_nodes = survivors
                elif action == "shrink":
                    pause = (
                        rework + request.restart_seconds
                        + self.repartition_seconds
                    )
                    spot_nodes = survivors
                    hosting = survivors + ondemand_nodes
                else:  # migrate-and-expand
                    pause = (
                        rework + request.restart_seconds
                        + self.migration_seconds
                    )
                    spot_nodes = 0
                    ondemand_nodes = nodes
                    hosting = nodes
                    migrated = True
            if sink is not None:
                sink.emit(
                    "replan",
                    event=decision.event,
                    hour=round(decision.hour, 4),
                    reclaimed=len(reclaimed),
                    survivors=survivors,
                    action=action,
                    expected_dollars=round(
                        decision.chosen.expected_dollars, 2
                    ),
                )
        else:
            raise BrokerError(
                f"elastic run did not finish within {self._max_rounds} rounds"
            )
        if sink is not None:
            sink.emit(
                "replan_summary",
                events=len(decisions),
                cost_dollars=round(cost, 2),
                wall_hours=round(elapsed / 3600.0, 4),
            )
            sink.flush()
        return decisions, cost, elapsed, spot_nodes, ondemand_nodes


def _elastic_obs(obs) -> tuple:
    """The (span view, stream sink) pair for an elastic run."""
    from repro.obs.core import NULL_RANK_OBS

    if obs is None or not getattr(obs, "config", None) or not obs.config.enabled:
        return NULL_RANK_OBS, None
    sink = None
    if obs.config.resolved_dir() is not None:
        sink = obs.attach_stream()
    return obs.wall_view(), sink


def volatile_market_request(
    num_ranks: int = 128,
    num_iterations: int = 1000,
    deadline_hours: float = 16.0,
    spike_probability: float = 0.12,
    seed: int = 7,
) -> BrokerRequest:
    """The elasticity acceptance scenario: a volatile spot market.

    Twice the §VII.B spike rate, an assembly that fits entirely in the
    spot pool, and a deadline loose enough that shrinking is an option
    but tight enough that unbounded degradation is not — the regime
    where re-planning at each reclaim beats both static answers
    (gate-tested: elastic cost < the rigid all-spot run under the same
    reclaim trajectory AND < failure-free on-demand, deadline met).
    """
    return BrokerRequest(
        app="rd",
        num_ranks=num_ranks,
        num_iterations=num_iterations,
        deadline_s=deadline_hours * 3600.0,
        spot_spike_probability=spike_probability,
        seed=seed,
    )


def render_elastic_report(report: ElasticReport) -> str:
    """The per-reclaim decision log plus the baseline comparison."""
    request = report.request
    lines = [
        f"elastic broker: {request.num_ranks} ranks of {request.app!r} x "
        f"{request.num_iterations} iterations on {report.nodes} nodes",
    ]
    if request.deadline_s is not None:
        lines[-1] += f", deadline {request.deadline_s / 3600.0:.1f} h"
    lines.append(
        f"market: spike probability {request.spot_spike_probability:.2f}/h"
    )
    lines.append("")
    if not report.decisions:
        lines.append("no reclaim events — the run finished undisturbed")
    for d in report.decisions:
        lines.append(
            f"event {d.event} @ {d.hour:5.1f} h: {len(d.reclaimed)} "
            f"reclaimed, {d.survivors} spot survivors -> {d.action}"
        )
        for o in d.options:
            marker = "*" if o.action == d.action else " "
            dollars = (
                f"${o.expected_dollars:9.2f}" if o.feasible else "  infeasible"
            )
            flag = "" if o.meets_deadline else "  [misses deadline]"
            lines.append(
                f"  {marker} {o.action:18s} {dollars}  "
                f"+{o.expected_wall_s / 3600.0:6.2f} h  "
                f"({o.spot_nodes} spot + {o.ondemand_nodes} od){flag}"
            )
    lines.append("")
    lines.append(
        f"elastic:          ${report.cost_dollars:9.2f}  "
        f"{report.wall_hours:6.2f} h"
        f"{'' if report.met_deadline else '  [missed deadline]'}"
    )
    spot_cost = (
        f"${report.static_all_spot_cost:9.2f}"
        if math.isfinite(report.static_all_spot_cost)
        else "never finishes"
    )
    spot_wall = (
        f"{report.static_all_spot_wall_hours:6.2f} h"
        if math.isfinite(report.static_all_spot_wall_hours)
        else ""
    )
    lines.append(
        f"static all-spot:  {spot_cost}  {spot_wall}  "
        f"(rigid, same reclaim trajectory)"
    )
    lines.append(
        f"static on-demand: ${report.static_on_demand_cost:9.2f}  "
        f"{report.static_on_demand_wall_hours:6.2f} h"
    )
    verdict = "beats" if report.beats_baselines else "does NOT beat"
    lines.append(f"elastic {verdict} both static baselines")
    return "\n".join(lines)


def render_broker_report(report: BrokerReport, top: int | None = None) -> str:
    """The ranked table plus the best plan's per-phase breakdown."""
    lines = [
        f"broker: {report.request.num_ranks} ranks of "
        f"{report.request.app!r} x {report.request.num_iterations} iterations",
    ]
    if report.request.deadline_s is not None:
        lines[-1] += f", deadline {report.request.deadline_s / 3600.0:.1f} h"
    lines.append("")
    shown = report.plans if top is None else report.plans[:top]
    for i, plan in enumerate(shown, start=1):
        lines.append(f"{i}. {plan.summary()}")
    try:
        best = report.best
    except BrokerError as exc:
        lines.append("")
        lines.append(str(exc))
        return "\n".join(lines)
    lines.append("")
    lines.append(f"best: {best.name} ({best.strategy}) — phase breakdown")
    for phase in best.phases:
        lines.append(
            f"  {phase.name:18s} {phase.time_s:12.1f} s  "
            f"${phase.cost_dollars:10.2f}  {phase.note}"
        )
    if best.checkpoint_interval_s is not None:
        lines.append(
            f"  checkpoint interval (Young tau*): "
            f"{best.checkpoint_interval_s:.0f} s"
        )
    if best.est_cost_all_spot is not None:
        lines.append(
            f"  est. all-spot cost (Table II view): ${best.est_cost_all_spot:.2f}"
        )
    return "\n".join(lines)
