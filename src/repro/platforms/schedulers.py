"""Batch scheduler front ends: PBS, serial-only SGE, and the bare shell.

Execution modality is one of Table I's heterogeneity axes.  What differs
between the paper's platforms at submission time is the command a user
types: PBS's ``qsub`` with a node/ppn request, ellipse's SGE (configured
for serial batches; Open MPI's SGE liaison makes parallel runs possible
anyway), and EC2's "scheduler" being nothing but a hand-rolled
``mpiexec`` over a hosts file.  How long a job waits is the platform's
:class:`~repro.platforms.spec.AvailabilityModel`, and which rank counts
cannot launch is :func:`repro.platforms.limits.rank_ceiling_reason`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchedulerError
from repro.platforms.spec import PlatformSpec


@dataclass(frozen=True)
class JobRequest:
    """A parallel job submission: size and estimated duration."""

    num_ranks: int
    walltime_s: float

    def __post_init__(self) -> None:
        if self.num_ranks < 1:
            raise SchedulerError(f"job needs at least 1 rank, got {self.num_ranks}")
        if self.walltime_s <= 0:
            raise SchedulerError(f"walltime must be positive, got {self.walltime_s}")


class BatchScheduler:
    """A platform's job front end; subclasses build its launch command."""

    def __init__(self, platform: PlatformSpec):
        self.platform = platform

    def launch_command(self, job: JobRequest) -> str:
        """The command line a user would type (documentation value only)."""
        raise NotImplementedError


class PBSScheduler(BatchScheduler):
    """PBS Torque (puma) / PBS Professional (lagrange)."""

    def launch_command(self, job: JobRequest) -> str:
        nodes = self.platform.nodes_for_ranks(job.num_ranks)
        ppn = min(self.platform.cores_per_node, job.num_ranks)
        return (
            f"qsub -l nodes={nodes}:ppn={ppn},walltime="
            f"{int(job.walltime_s)} run_lifev.pbs"
        )


class SGEScheduler(BatchScheduler):
    """Sun Grid Engine 6.1 as configured on ellipse: serial batches only.

    Parallel jobs are not *scheduled* as such; Open MPI detects SGE and
    liaises with it to start tasks on the reserved nodes (§VI.B), so
    parallel submissions go through ``qsub -pe orte``, marked as the
    liaison in the command.
    """

    def launch_command(self, job: JobRequest) -> str:
        if job.num_ranks == 1:
            return "qsub -b y ./solver"
        slots = job.num_ranks
        return (
            f"qsub -pe orte {slots} -b y mpiexec -n {job.num_ranks} ./solver"
            "  # Open MPI/SGE liaison"
        )


class ShellLauncher(BatchScheduler):
    """EC2: no scheduler.  Launch = raw mpiexec over a hosts file.

    The user instantiates image copies, collects the assigned intranet
    IPs into a hosts file and runs ``mpiexec`` directly (§VI.D).
    """

    def launch_command(self, job: JobRequest) -> str:
        nodes = self.platform.nodes_for_ranks(job.num_ranks)
        return (
            f"mpiexec -n {job.num_ranks} --hostfile hosts.{nodes} ./solver"
            "  # hosts file from EC2 intranet IPs"
        )


def make_scheduler(platform: PlatformSpec) -> BatchScheduler:
    """Instantiate the right scheduler simulator for a platform."""
    kinds = {"pbs": PBSScheduler, "sge": SGEScheduler, "shell": ShellLauncher}
    try:
        cls = kinds[platform.scheduler_name]
    except KeyError:
        raise SchedulerError(
            f"unknown scheduler {platform.scheduler_name!r} on {platform.name}"
        ) from None
    return cls(platform)
