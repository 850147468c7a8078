"""End-to-end deployment: provision -> schedule -> execute -> bill.

One call answers the paper's practical question for a given application
and rank count on a given platform, producing a
:class:`DeploymentReport` with every attribute of the study: porting
effort, queue wait, per-iteration phase times, run time, and dollars.
It is the one "price this job on one platform" step: every candidate
of the assembly broker (:mod:`repro.broker.assembly`) is built on it.
The queue wait is the availability model's expectation, not a sampled
draw, so the same job always prices the same.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlatformError
from repro.apps.workload import ELEMENTS_PER_RANK, AppWorkload
from repro.costs.model import PlatformCostModel
from repro.perfmodel.calibration import time_scale_for
from repro.perfmodel.phases import PhaseModel, PhasePrediction
from repro.platforms.limits import rank_ceiling_reason
from repro.platforms.provisioning import ProvisioningPlan, plan_provisioning
from repro.platforms.schedulers import JobRequest, make_scheduler
from repro.platforms.spec import PlatformSpec


@dataclass(frozen=True)
class DeploymentReport:
    """Everything one deployment produced."""

    platform: str
    num_ranks: int
    num_iterations: int
    provisioning: ProvisioningPlan
    queue_wait_s: float
    launch_command: str
    phases: PhasePrediction
    runtime_s: float
    run_cost_dollars: float
    nodes: int

    def summary(self) -> str:
        """A one-paragraph human-readable report."""
        return (
            f"{self.platform}: {self.num_ranks} ranks on {self.nodes} nodes | "
            f"porting {self.provisioning.total_hours:.1f} man-h | "
            f"wait {self.queue_wait_s / 3600:.2f} h | "
            f"run {self.runtime_s:.1f} s "
            f"({self.phases.total:.2f} s/iter x {self.num_iterations}) | "
            f"cost ${self.run_cost_dollars:.2f}"
        )


def deploy_and_run(
    platform: PlatformSpec,
    workload: AppWorkload,
    num_ranks: int,
    num_iterations: int = 100,
) -> DeploymentReport:
    """Run the full pipeline; raises :class:`PlatformError` when the
    platform cannot execute the request (capacity or §VII.A ceilings).
    """
    if num_ranks < 1 or num_iterations < 1:
        raise PlatformError("num_ranks and num_iterations must be >= 1")
    reason = rank_ceiling_reason(platform, num_ranks)
    if reason is not None:
        raise PlatformError(reason)
    required = workload.memory_per_rank_bytes(ELEMENTS_PER_RANK)
    available = platform.node.ram_per_core_gb * 1e9
    if required > available:
        raise PlatformError(
            f"{platform.name}: {ELEMENTS_PER_RANK} elements/rank need "
            f"{required / 1e9:.2f} GB but the node offers "
            f"{platform.node.ram_per_core_gb:.1f} GB per core "
            f"(Table I 'RAM/core'; §VIII contrasts 1 GB/core 2006 nodes "
            f"with cc2.8xlarge's 3.8 GB)"
        )

    model = PhaseModel(workload, platform, time_scale=time_scale_for(workload))
    phases = model.predict(num_ranks)
    runtime = phases.total * num_iterations
    job = JobRequest(num_ranks=num_ranks, walltime_s=runtime * 1.5)

    return DeploymentReport(
        platform=platform.name,
        num_ranks=num_ranks,
        num_iterations=num_iterations,
        provisioning=plan_provisioning(platform),
        queue_wait_s=platform.availability.expected_wait(
            num_ranks, platform.total_cores
        ),
        launch_command=make_scheduler(platform).launch_command(job),
        phases=phases,
        runtime_s=runtime,
        run_cost_dollars=PlatformCostModel.for_platform(platform).cost(
            num_ranks, runtime
        ),
        nodes=platform.nodes_for_ranks(num_ranks),
    )
