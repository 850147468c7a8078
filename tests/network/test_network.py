"""Tests for link models, topology and contention."""

import pytest

from repro.errors import NetworkError
from repro.network.model import (
    GIGABIT_ETHERNET,
    INFINIBAND_4X_DDR,
    SHARED_MEMORY,
    TEN_GIGABIT_ETHERNET,
    LinkModel,
    NetworkModel,
)
from repro.network.topology import ClusterTopology
from repro.network.contention import estimate_offnode_fraction, nic_sharing_factor


class TestLinkModel:
    def test_validation(self):
        with pytest.raises(NetworkError):
            LinkModel("bad", latency=-1.0, bandwidth=1.0)
        with pytest.raises(NetworkError):
            LinkModel("bad", latency=0.0, bandwidth=0.0)

    def test_scaled(self):
        slow = GIGABIT_ETHERNET.scaled(latency_factor=2.0, bandwidth_factor=0.5)
        assert slow.latency == pytest.approx(2 * GIGABIT_ETHERNET.latency)
        assert slow.bandwidth == pytest.approx(0.5 * GIGABIT_ETHERNET.bandwidth)

class TestPresets:
    def test_fabric_ordering_latency(self):
        """IB has microsecond latency; both ethernets are tens of us."""
        assert INFINIBAND_4X_DDR.latency < TEN_GIGABIT_ETHERNET.latency
        assert INFINIBAND_4X_DDR.latency < GIGABIT_ETHERNET.latency
        assert SHARED_MEMORY.latency < INFINIBAND_4X_DDR.latency

    def test_fabric_ordering_bandwidth(self):
        assert GIGABIT_ETHERNET.bandwidth < TEN_GIGABIT_ETHERNET.bandwidth
        assert TEN_GIGABIT_ETHERNET.bandwidth < INFINIBAND_4X_DDR.bandwidth

    def test_ec2_latency_near_ethernet(self):
        """Virtualization keeps EC2 10GbE latency in 1GbE territory —
        the key fact behind the paper's EC2 scaling curves."""
        assert TEN_GIGABIT_ETHERNET.latency > 10 * INFINIBAND_4X_DDR.latency

    def test_small_message_ib_wins_big_message_too(self):
        """IB is both the lower-latency and the wider link."""
        assert INFINIBAND_4X_DDR.latency < GIGABIT_ETHERNET.latency
        assert INFINIBAND_4X_DDR.bandwidth > GIGABIT_ETHERNET.bandwidth

    def test_crossover_10gbe_vs_1gbe(self):
        """10GbE beats 1GbE for large messages despite higher latency."""
        assert TEN_GIGABIT_ETHERNET.latency > GIGABIT_ETHERNET.latency
        assert TEN_GIGABIT_ETHERNET.bandwidth > GIGABIT_ETHERNET.bandwidth

class TestNetworkModel:
    def test_same_node_uses_shared_memory(self):
        model = NetworkModel(GIGABIT_ETHERNET)
        assert model.link_between(0, 0) is SHARED_MEMORY
        assert model.link_between(0, 1) is GIGABIT_ETHERNET

class TestClusterTopology:
    def test_puma_shape(self):
        """puma: 32 nodes x 4 cores, 1 GbE (Table I)."""
        puma = ClusterTopology(32, 4, NetworkModel(GIGABIT_ETHERNET))
        assert puma.total_cores == 128
        assert puma.supports(125)
        assert not puma.supports(216)

    def test_rank_placement_block(self):
        topo = ClusterTopology(4, 4, NetworkModel(GIGABIT_ETHERNET))
        assert topo.node_of_rank(0) == 0
        assert topo.node_of_rank(3) == 0
        assert topo.node_of_rank(4) == 1
        assert topo.node_of_rank(15) == 3

    def test_rank_beyond_machine_rejected(self):
        topo = ClusterTopology(2, 4, NetworkModel(GIGABIT_ETHERNET))
        with pytest.raises(NetworkError):
            topo.node_of_rank(8)

    def test_nodes_for_ranks_ceiling(self):
        """1000 ranks on 16-core EC2 nodes need 63 instances (paper §VII.A)."""
        ec2 = ClusterTopology(64, 16, NetworkModel(TEN_GIGABIT_ETHERNET))
        assert ec2.nodes_for_ranks(1000) == 63
        assert ec2.nodes_for_ranks(16) == 1
        assert ec2.nodes_for_ranks(17) == 2

    def test_validation(self):
        with pytest.raises(NetworkError):
            ClusterTopology(0, 4, NetworkModel(GIGABIT_ETHERNET))
        with pytest.raises(NetworkError):
            ClusterTopology(4, 0, NetworkModel(GIGABIT_ETHERNET))
        topo = ClusterTopology(2, 2, NetworkModel(GIGABIT_ETHERNET))
        with pytest.raises(NetworkError):
            topo.nodes_for_ranks(0)


class TestContention:
    def _topo(self, cores):
        return ClusterTopology(256, cores, NetworkModel(GIGABIT_ETHERNET))

    def test_single_node_no_offnode_traffic(self):
        topo = self._topo(16)
        assert estimate_offnode_fraction(topo, 8) == 0.0
        assert nic_sharing_factor(topo, 8) == 1.0

    def test_offnode_fraction_shrinks_with_fatter_nodes(self):
        """16-core nodes keep more halo traffic in shared memory than
        4-core nodes — the paper's EC2-vs-puma mechanism."""
        frac4 = estimate_offnode_fraction(self._topo(4), 1000)
        frac16 = estimate_offnode_fraction(self._topo(16), 1000)
        assert frac16 < frac4

    def test_sharing_factor_bounds(self):
        topo = self._topo(4)
        factor = nic_sharing_factor(topo, 64)
        assert 1.0 <= factor <= 4.0

    def test_explicit_fraction_override(self):
        topo = self._topo(8)
        assert nic_sharing_factor(topo, 64, offnode_fraction=1.0) == pytest.approx(8.0)
        assert nic_sharing_factor(topo, 64, offnode_fraction=0.0) == 1.0

    def test_validation(self):
        topo = self._topo(4)
        with pytest.raises(NetworkError):
            nic_sharing_factor(topo, 0)
        with pytest.raises(NetworkError):
            nic_sharing_factor(topo, 8, offnode_fraction=1.5)
