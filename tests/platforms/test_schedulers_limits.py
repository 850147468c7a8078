"""Tests for scheduler simulation and failure injection."""

import pytest

from repro.errors import DataVolumeExceededError, LaunchError, SchedulerError
from repro.platforms import (
    JobRequest,
    PBSScheduler,
    SGEScheduler,
    ShellLauncher,
    ec2_cc28xlarge,
    ellipse,
    lagrange,
    launch_hook_for,
    make_scheduler,
    puma,
    volume_limit_for,
)
from repro.platforms.limits import effective_max_ranks
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


class TestLaunchHooks:
    def test_ellipse_hook_trips_above_512(self):
        hook = launch_hook_for(ellipse)
        assert hook is not None
        hook(512)  # fine
        with pytest.raises(LaunchError, match="remote MPI daemons"):
            hook(729)

    def test_other_platforms_have_no_hook(self):
        for p in (puma, lagrange, ec2_cc28xlarge):
            assert launch_hook_for(p) is None

    def test_hook_integrates_with_launcher(self):
        from repro.simmpi import run_spmd

        with pytest.raises(LaunchError):
            run_spmd(
                lambda comm: None,
                8,
                topology=ellipse.topology(),
                launch_hook=lambda n: launch_hook_for(ellipse)(n * 100),
            )


class TestVolumeLimits:
    def test_lagrange_budget_shrinks_past_cap(self):
        at_cap = volume_limit_for(lagrange, 343)
        beyond = volume_limit_for(lagrange, 512)
        assert at_cap is not None and beyond is not None
        assert beyond < at_cap

    def test_unlimited_platforms(self):
        for p in (puma, ellipse, ec2_cc28xlarge):
            assert volume_limit_for(p, 1000) is None

    def test_volume_cap_trips_in_simulation(self):
        """A communication-heavy run on 'lagrange beyond the cap' dies with
        DataVolumeExceededError, as in §VII.A."""
        import numpy as np

        from repro.simmpi import run_spmd

        def chatty(comm):
            peer = (comm.rank + 1) % comm.size
            for _ in range(200):
                comm.send(np.zeros(1000), dest=peer)
                comm.recv()

        # Emulate the >cap regime with a proportionally scaled budget.
        tiny_budget = volume_limit_for(lagrange, 512) * (8 / 512) ** 3 * 1e-3
        with pytest.raises(DataVolumeExceededError):
            run_spmd(
                chatty, 4,
                topology=lagrange.topology(num_nodes=1),
                volume_limit_bytes=tiny_budget,
                real_timeout=20.0,
            )


class TestEffectiveMaxRanks:
    def test_paper_ceilings(self):
        """The largest weak-scaling point each platform sustained (§VII.A):
        puma 125 of 128 cores, ellipse 512, lagrange 343, ec2 1000."""
        assert effective_max_ranks(puma) == 128  # capacity; largest cube = 125
        assert effective_max_ranks(ellipse) == 512
        assert effective_max_ranks(lagrange) == 343
        assert effective_max_ranks(ec2_cc28xlarge) >= 1000
