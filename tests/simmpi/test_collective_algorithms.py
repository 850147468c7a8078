"""Tests for the collective-algorithm ablation: binomial vs linear."""

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.network.model import GIGABIT_ETHERNET, NetworkModel
from repro.network.topology import ClusterTopology
from repro.simmpi.datatypes import SUM
from repro.simmpi.launcher import run_spmd


def run(fn, n, **kw):
    kw.setdefault("real_timeout", 25.0)
    return run_spmd(fn, n, **kw)


def one_rank_per_node(n):
    return ClusterTopology(n, 1, NetworkModel(GIGABIT_ETHERNET))


class TestEquivalence:
    @pytest.mark.parametrize("algorithm", ["binomial", "linear"])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_bcast_algorithms_agree(self, algorithm, n):
        def main(comm):
            payload = [1, 2, 3] if comm.rank == 0 else None
            return comm.bcast(payload, algorithm=algorithm)

        result = run(main, n)
        assert all(r == [1, 2, 3] for r in result.returns)

    @pytest.mark.parametrize("algorithm", ["binomial", "linear"])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_reduce_algorithms_agree(self, algorithm, n):
        def main(comm):
            return comm.reduce(comm.rank + 1, op=SUM, algorithm=algorithm)

        result = run(main, n)
        assert result.returns[0] == n * (n + 1) // 2

    def test_unknown_algorithm(self):
        def main(comm):
            comm.bcast(1, algorithm="hypercube")

        with pytest.raises(CommunicatorError):
            run(main, 2)

        def main2(comm):
            comm.reduce(1, algorithm="hypercube")

        with pytest.raises(CommunicatorError):
            run(main2, 2)


class TestAblationTiming:
    """The reason Open MPI uses trees: log(p) rounds beat p messages."""

    def _bcast_makespan(self, n, algorithm):
        payload = np.zeros(125_000)  # 1 MB

        def main(comm):
            comm.bcast(payload if comm.rank == 0 else None, algorithm=algorithm)
            return comm.time

        result = run(main, n, topology=one_rank_per_node(n))
        return max(result.returns)

    def test_binomial_beats_linear_at_scale(self):
        n = 16
        linear = self._bcast_makespan(n, "linear")
        binomial = self._bcast_makespan(n, "binomial")
        # Linear: 15 serialized sends from the root; binomial: 4 rounds.
        assert binomial < 0.5 * linear

    def test_equal_at_two_ranks(self):
        linear = self._bcast_makespan(2, "linear")
        binomial = self._bcast_makespan(2, "binomial")
        assert binomial == pytest.approx(linear, rel=0.01)
