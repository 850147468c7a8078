"""Tests for platform specs and the Table I catalog."""

import pytest

from repro.errors import PlatformError
from repro.network.model import (
    GIGABIT_ETHERNET,
    INFINIBAND_4X_DDR,
    TEN_GIGABIT_ETHERNET,
)
from repro.platforms import (
    AccessMode,
    AvailabilityModel,
    CPUModel,
    NodeSpec,
    SupportLevel,
    all_platforms,
    ec2_cc28xlarge,
    ellipse,
    lagrange,
    platform_by_name,
    puma,
    table1_rows,
)


class TestCPUAndNode:
    def test_node_core_count(self):
        assert puma.node.cores == 4
        assert ellipse.node.cores == 4
        assert lagrange.node.cores == 12
        assert ec2_cc28xlarge.node.cores == 16

    def test_node_gflops_positive_and_ordered(self):
        """Per-core speed: 2006 Opterons < Westmere < Sandy-Bridge-class."""
        assert puma.node.cpu.sustained_gflops < lagrange.node.cpu.sustained_gflops
        assert lagrange.node.cpu.sustained_gflops <= ec2_cc28xlarge.node.cpu.sustained_gflops

    def test_invalid_cpu(self):
        with pytest.raises(PlatformError):
            CPUModel("bad", "x", clock_ghz=0, cores=1, sustained_gflops=1)

    def test_invalid_node(self):
        cpu = CPUModel("ok", "x", 1.0, 2, 1.0)
        with pytest.raises(PlatformError):
            NodeSpec(cpu=cpu, sockets=0, ram_per_core_gb=1.0, scratch_gb=1.0)

    def test_ram_per_node(self):
        for platform, ram_gb in ((lagrange, 24.0), (ec2_cc28xlarge, 60.8)):
            node = platform.node
            assert node.ram_per_core_gb * node.cores == pytest.approx(ram_gb)


class TestAvailability:
    def test_expected_wait_grows_with_size(self):
        a = AvailabilityModel(base_wait_s=60, mean_queue_wait_s=3600)
        small = a.expected_wait(4, 128)
        large = a.expected_wait(128, 128)
        assert small < large
        assert large == pytest.approx(60 + 3600)

    def test_validation(self):
        a = AvailabilityModel(base_wait_s=0, mean_queue_wait_s=100)
        with pytest.raises(PlatformError):
            a.expected_wait(0, 10)
        with pytest.raises(PlatformError):
            a.expected_wait(20, 10)

    def test_ec2_immediate_vs_grid_queues(self):
        """IaaS provides resources immediately; grids queue (paper §VIII)."""
        ec2_wait = ec2_cc28xlarge.availability.expected_wait(1000, ec2_cc28xlarge.total_cores)
        grid_wait = lagrange.availability.expected_wait(343, lagrange.total_cores)
        assert ec2_wait < grid_wait / 10


class TestCatalog:
    def test_four_platforms(self):
        names = [p.name for p in all_platforms()]
        assert names == ["puma", "ellipse", "lagrange", "ec2"]

    def test_lookup(self):
        assert platform_by_name("PUMA") is puma
        with pytest.raises(PlatformError):
            platform_by_name("bluegene")

    def test_interconnects_match_table1(self):
        assert puma.interconnect is GIGABIT_ETHERNET
        assert ellipse.interconnect is GIGABIT_ETHERNET
        assert lagrange.interconnect is INFINIBAND_4X_DDR
        assert ec2_cc28xlarge.interconnect is TEN_GIGABIT_ETHERNET

    def test_access_modes(self):
        assert ec2_cc28xlarge.access == AccessMode.ROOT
        for p in (puma, ellipse, lagrange):
            assert p.access == AccessMode.USER_SPACE

    def test_support_levels(self):
        assert puma.support == SupportLevel.FULL
        assert ellipse.support == SupportLevel.VERY_LIMITED
        assert lagrange.support == SupportLevel.LIMITED
        assert ec2_cc28xlarge.support == SupportLevel.NONE

    def test_costs_match_section_7d(self):
        assert puma.cost_per_core_hour == pytest.approx(0.023)
        assert ellipse.cost_per_core_hour == pytest.approx(0.05)
        assert lagrange.cost_per_core_hour == pytest.approx(0.1919, abs=1e-4)
        assert ec2_cc28xlarge.cost_per_core_hour == pytest.approx(0.15)

    def test_ec2_node_hour_price(self):
        """16 cores x 15 cents = the $2.40/h on-demand cc2.8xlarge price."""
        node_hour = ec2_cc28xlarge.cost_per_core_hour * ec2_cc28xlarge.node.cores
        assert node_hour == pytest.approx(2.40)

    def test_puma_capacity_is_128_cores(self):
        assert puma.total_cores == 128

    def test_ec2_63_instances_hold_1000_ranks(self):
        assert ec2_cc28xlarge.nodes_for_ranks(1000) == 63
        assert ec2_cc28xlarge.total_cores >= 1000

    def test_whole_node_charging_only_on_ec2(self):
        assert ec2_cc28xlarge.charges_whole_nodes
        assert not puma.charges_whole_nodes

    def test_topology_generation(self):
        topo = puma.topology()
        assert topo.total_cores == 128
        assert topo.network.internode is GIGABIT_ETHERNET

    def test_on_demand_topology_override(self):
        topo = ec2_cc28xlarge.topology(num_nodes=5)
        assert topo.num_nodes == 5


class TestTable1:
    def test_all_rows_present(self):
        rows = table1_rows()
        expected = {
            "cpu arch.", "# cpu/cores", "RAM/core", "network", "storage",
            "access", "support", "build env.", "compiler", "dependencies",
            "MPI", "parallel jobs", "execution",
        }
        assert set(rows) == expected

    def test_spot_checks_against_paper(self):
        rows = table1_rows()
        assert rows["cpu arch."]["puma"] == "Opteron"
        assert rows["cpu arch."]["ec2"] == "Xeon"
        assert rows["# cpu/cores"]["lagrange"] == "2/6"
        assert rows["# cpu/cores"]["ec2"] == "2/8"
        assert rows["access"]["ec2"] == "root"
        assert rows["dependencies"]["puma"] == "all"
        assert rows["dependencies"]["lagrange"] == "blas, lapack"
        assert rows["dependencies"]["ellipse"] == "none"
        assert rows["MPI"]["ellipse"] == "none"
        assert rows["MPI"]["lagrange"] == "Open MPI"
        assert rows["parallel jobs"]["ellipse"] == "no"
        assert rows["execution"]["puma"] == "PBS"
        assert rows["execution"]["ellipse"] == "SGE"
        assert rows["execution"]["ec2"] == "shell"
        assert rows["storage"]["ellipse"].startswith("insufficient")
        assert rows["storage"]["lagrange"] == "OK"
