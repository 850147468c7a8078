"""Tests for scheduler simulation and the §VII.A rank ceilings."""

import pytest

from repro.errors import SchedulerError
from repro.platforms import (
    JobRequest,
    PBSScheduler,
    SGEScheduler,
    ShellLauncher,
    ec2_cc28xlarge,
    ellipse,
    lagrange,
    make_scheduler,
    puma,
)
from repro.platforms.limits import effective_max_ranks, rank_ceiling_reason
from repro.units import hours


class TestJobRequest:
    def test_validation(self):
        with pytest.raises(SchedulerError):
            JobRequest(num_ranks=0, walltime_s=100)
        with pytest.raises(SchedulerError):
            JobRequest(num_ranks=4, walltime_s=0)


class TestSchedulerFactory:
    def test_types(self):
        assert isinstance(make_scheduler(puma), PBSScheduler)
        assert isinstance(make_scheduler(ellipse), SGEScheduler)
        assert isinstance(make_scheduler(lagrange), PBSScheduler)
        assert isinstance(make_scheduler(ec2_cc28xlarge), ShellLauncher)


class TestSubmission:
    def test_pbs_accepts_and_builds_command(self):
        command = make_scheduler(puma).launch_command(JobRequest(64, hours(1)))
        assert "qsub" in command
        assert "nodes=16:ppn=4" in command

    def test_sge_parallel_via_openmpi_liaison(self):
        command = make_scheduler(ellipse).launch_command(JobRequest(64, hours(1)))
        assert "liaison" in command
        assert "-pe orte 64" in command

    def test_sge_serial_job_plain(self):
        command = make_scheduler(ellipse).launch_command(JobRequest(1, hours(1)))
        assert "mpiexec" not in command

    def test_shell_launcher_builds_hostfile_command(self):
        command = make_scheduler(ec2_cc28xlarge).launch_command(
            JobRequest(1000, hours(1))
        )
        assert "mpiexec -n 1000" in command
        assert "hosts.63" in command

    def test_wait_times_ec2_fastest(self):
        """EC2 boot-time wait is minutes; grid queues are hours."""
        ec2_wait = ec2_cc28xlarge.availability.expected_wait(
            512, ec2_cc28xlarge.total_cores
        )
        grid_wait = lagrange.availability.expected_wait(343, lagrange.total_cores)
        assert ec2_wait < 600
        assert grid_wait > ec2_wait

    def test_queue_wait_grows_with_request_size(self):
        small = puma.availability.expected_wait(4, puma.total_cores)
        big = puma.availability.expected_wait(125, puma.total_cores)
        assert big > small


class TestRankCeilingReason:
    def test_ellipse_refuses_above_512(self):
        """mpiexec could not start more than 512 remote daemons (§VII.A)."""
        assert rank_ceiling_reason(ellipse, 512) is None
        reason = rank_ceiling_reason(ellipse, 729)
        assert "observed execution ceiling of 512" in reason
        assert "§VII.A" in reason

    def test_lagrange_refuses_above_343(self):
        """The IB data-volume cap stopped lagrange past 343 ranks (§VII.A)."""
        assert rank_ceiling_reason(lagrange, 343) is None
        assert "ceiling of 343" in rank_ceiling_reason(lagrange, 512)

    def test_capacity_bound_names_the_cores(self):
        assert rank_ceiling_reason(puma, 125) is None
        assert rank_ceiling_reason(puma, 216) == (
            f"216 ranks exceed the machine's {puma.total_cores} cores"
        )


class TestVolumeLimits:
    def test_unlimited_platforms(self):
        """Only lagrange carries a data-volume ceiling."""
        assert lagrange.data_volume_cap_ranks == 343
        for p in (puma, ellipse, ec2_cc28xlarge):
            assert p.data_volume_cap_ranks is None

    def test_volume_cap_trips_in_simulation(self):
        """lagrange's simulated weak-scaling series stops at the IB cap."""
        from repro.apps.workload import RD_WORKLOAD
        from repro.perfmodel.weak_scaling import weak_scaling_sweep

        points = {p.num_ranks: p for p in weak_scaling_sweep(RD_WORKLOAD, lagrange)}
        assert points[343].feasible
        assert not points[512].feasible
        assert "data-volume cap" in points[512].limit_reason


class TestEffectiveMaxRanks:
    def test_paper_ceilings(self):
        """The largest weak-scaling point each platform sustained (§VII.A):
        puma 125 of 128 cores, ellipse 512, lagrange 343, ec2 1000."""
        assert effective_max_ranks(puma) == 128  # capacity; largest cube = 125
        assert effective_max_ranks(ellipse) == 512
        assert effective_max_ranks(lagrange) == 343
        assert effective_max_ranks(ec2_cc28xlarge) >= 1000
