"""Property tests for the adaptive collective layer.

Every allreduce variant must deliver correct, cross-rank
bit-identical results on arbitrary communicator sizes — including
single-rank and non-power-of-two — and the hierarchical variants must
equal the flat ones bit-for-bit.  Payloads are small integers, so every
reduction order produces the exact same floats and "equal to the exact
expected sum" *is* the bit-for-bit statement.

The executed-traffic tests tie the simulator to the analytic layer:
per-rank messages and bytes of a run must equal what
:func:`repro.simmpi.collectives.allreduce_shape` predicts, which is the
contract :mod:`repro.perfmodel.phases` relies on.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.model import GIGABIT_ETHERNET, NetworkModel
from repro.network.topology import ClusterTopology
from repro.platforms.catalog import platform_by_name
from repro.simmpi.datatypes import MAX, SUM
from repro.simmpi.selector import CollectiveSelector
from repro.simmpi.launcher import run_spmd
from repro.simmpi import collectives as coll

#: Every schedule name ``allreduce`` accepts.
FLAT_ALLREDUCE = ("recursive_doubling", "ring", "rabenseifner")
ALLREDUCE_ALGORITHMS = FLAT_ALLREDUCE + coll.HIER_ALLREDUCE_ALGORITHMS + ("auto",)

sizes = st.integers(min_value=1, max_value=9)
bases = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=24)

spmd_settings = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run(fn, n, **kw):
    kw.setdefault("real_timeout", 25.0)
    return run_spmd(fn, n, **kw)


def one_rank_per_node(n):
    return ClusterTopology(n, 1, NetworkModel(GIGABIT_ETHERNET))


class TestAllreduceVariants:
    @pytest.mark.parametrize("algorithm", ALLREDUCE_ALGORITHMS)
    @given(size=sizes, base=bases)
    @spmd_settings
    def test_exact_sum_on_any_size(self, algorithm, size, base):
        """Correct and bit-identical to the exact sum on every size —
        non-power-of-two and single-rank included — for flat and
        hierarchical variants alike."""
        base_arr = np.asarray(base, dtype=float)

        def main(comm):
            return comm.allreduce(base_arr * (comm.rank + 1), op=SUM,
                                  algorithm=algorithm)

        expected = base_arr * (size * (size + 1) / 2.0)
        for result in run(main, size).returns:
            assert np.array_equal(result, expected)

    @pytest.mark.parametrize("algorithm", ALLREDUCE_ALGORITHMS)
    @given(size=sizes, base=bases)
    @spmd_settings
    def test_exact_max(self, algorithm, size, base):
        base_arr = np.asarray(base, dtype=float)

        def main(comm):
            return comm.allreduce(base_arr + comm.rank, op=MAX,
                                  algorithm=algorithm)

        expected = base_arr + (size - 1)
        for result in run(main, size).returns:
            assert np.array_equal(result, expected)

    @given(size=sizes)
    @spmd_settings
    def test_scalar_auto_matches_recursive_doubling(self, size):
        """Scalar payloads are not segmentable: on thin nodes (no
        hierarchy to exploit) auto must degrade to recursive doubling
        and still be exact."""

        def main(comm):
            value = comm.allreduce(float(comm.rank + 1), op=SUM)
            return value, dict(comm.algorithm_counts)

        result = run(main, size, topology=one_rank_per_node(size))
        for value, counts in result.returns:
            assert value == size * (size + 1) / 2.0
            assert counts == {"allreduce.recursive_doubling": 1}

    def test_shape_and_dtype_preserved(self):
        def main(comm):
            return comm.allreduce(
                np.ones((3, 4), dtype=np.float32), op=SUM, algorithm="ring"
            )

        for result in run(main, 6).returns:
            assert result.shape == (3, 4)
            assert result.dtype == np.float32
            assert np.all(result == 6.0)


class TestExecutionMatchesShapes:
    """Executed per-rank messages and bytes equal the analytic
    ScheduleShape — the contract the performance model builds on."""

    @pytest.mark.parametrize("algorithm", FLAT_ALLREDUCE)
    @given(size=st.sampled_from([2, 4, 8]), blocks=st.integers(1, 6))
    @spmd_settings
    def test_flat_allreduce_traffic(self, algorithm, size, blocks):
        n_doubles = size * blocks  # divisible => equal segment splits
        shape = coll.allreduce_shape(
            algorithm, size, n_doubles * 8, ranks_per_node=1
        )

        def main(comm):
            m0, b0, o0 = comm.messages_sent, comm.bytes_sent, comm.offnode_bytes_sent
            comm.allreduce(np.ones(n_doubles), op=SUM, algorithm=algorithm)
            return (
                comm.messages_sent - m0,
                comm.bytes_sent - b0,
                comm.offnode_bytes_sent - o0,
            )

        result = run(main, size, topology=one_rank_per_node(size))
        for messages, nbytes, offnode in result.returns:
            assert messages == shape.round_count
            assert nbytes == int(shape.bytes_per_rank)
            assert offnode == sum(
                r.nbytes * r.count for r in shape.rounds if r.internode
            )

    @given(blocks=st.integers(1, 6))
    @spmd_settings
    def test_hierarchical_leader_offnode_traffic(self, blocks):
        """On fat nodes only the leaders touch the NIC, moving exactly
        the inter-node bytes of the hierarchical schedule."""
        nodes, cores = 2, 4
        size = nodes * cores
        n_doubles = size * blocks
        shape = coll.allreduce_shape(
            "hier_rabenseifner", size, n_doubles * 8, ranks_per_node=cores
        )
        inter_bytes = sum(
            r.nbytes * r.count for r in shape.rounds if r.internode
        )

        def main(comm):
            o0 = comm.offnode_bytes_sent
            comm.allreduce(
                np.ones(n_doubles), op=SUM, algorithm="hier_rabenseifner"
            )
            return comm.offnode_bytes_sent - o0

        topology = ClusterTopology(nodes, cores, NetworkModel(GIGABIT_ETHERNET))
        offnode = run(main, size, topology=topology).returns
        leaders = {0, cores}
        for rank, nbytes in enumerate(offnode):
            assert nbytes == (inter_bytes if rank in leaders else 0)


class TestSelectorDecisions:
    """The acceptance table: on modeled 1 GbE the selector runs the
    latency-optimal tree for small messages and a segmented
    (reduce-scatter based) schedule for large ones."""

    def test_small_messages_use_recursive_doubling(self):
        selector = CollectiveSelector(one_rank_per_node(16), 16)
        for nbytes in (8, 24, 1024):
            assert selector.select_allreduce(nbytes).algorithm == "recursive_doubling"

    def test_large_messages_use_segmented_schedules(self):
        pof2 = CollectiveSelector(one_rank_per_node(16), 16)
        assert pof2.select_allreduce(1 << 20).algorithm in ("ring", "rabenseifner")
        non_pof2 = CollectiveSelector(one_rank_per_node(12), 12)
        assert non_pof2.select_allreduce(1 << 20).algorithm == "ring"

    def test_fat_node_large_allreduce_cuts_nic_bytes(self):
        """The headline of docs/collectives.md: 4 nodes x 4 cores on 1 GbE,
        one 512 KB allreduce -- ``auto`` keeps all but the node leaders
        off the NIC (5.33x fewer fabric bytes) and is no slower."""
        topology = ClusterTopology(4, 4, NetworkModel(GIGABIT_ETHERNET))

        def main(comm, algorithm):
            comm.allreduce(np.full(65536, float(comm.rank + 1)), algorithm=algorithm)
            return comm.offnode_bytes_sent

        fixed, adaptive = (
            run(main, 16, topology=topology, kwargs={"algorithm": algorithm})
            for algorithm in ("recursive_doubling", "auto")
        )
        assert adaptive.algorithm_counts == {"allreduce.hier_rabenseifner": 16}
        assert sum(fixed.returns) == 16_777_216
        assert sum(adaptive.returns) == 3_145_728
        assert adaptive.max_time <= fixed.max_time

    @pytest.mark.parametrize(
        "heading, platform, num_ranks",
        [("puma / ellipse", "puma", 64), ("lagrange", "lagrange", 64),
         ("EC2", "ec2", 16)],
    )
    def test_selection_tables_match_the_docs(self, heading, platform, num_ranks):
        """docs/collectives.md prints ``selection_table()`` per platform;
        this is what keeps those tables true."""
        docs = Path(__file__).resolve().parents[2] / "docs" / "collectives.md"
        lines = iter(docs.read_text().splitlines())
        title = next(line for line in lines if line.startswith(f"**{heading}"))
        assert f"{num_ranks} ranks" in title
        next(lines)  # blank line between the title and its table
        table = list(itertools.takewhile(lambda line: line.startswith("|"), lines))
        documented = [
            tuple(cell.strip(" `") for cell in row.strip("|").split("|"))
            for row in table[2:]  # skip the header and |---| rows
        ]
        spec = platform_by_name(platform)
        topology = spec.topology(num_nodes=spec.nodes_for_ranks(num_ranks))
        labels = {8: "8", 1024: "1 KB", 65536: "64 KB", 1 << 20: "1 MB"}
        derived = [
            (labels[row["nbytes"]], row["allreduce"])
            for row in CollectiveSelector(topology, num_ranks).selection_table()
        ]
        assert derived == documented

    @given(size=st.integers(2, 32), nbytes=st.integers(1, 1 << 21))
    @settings(max_examples=60, deadline=None)
    def test_selection_is_deterministic(self, size, nbytes):
        """Two independent selectors (as two SPMD ranks would build)
        agree — the property that lets ranks pick without communicating."""
        a = CollectiveSelector(one_rank_per_node(size), size)
        b = CollectiveSelector(one_rank_per_node(size), size)
        assert a.select_allreduce(nbytes) == b.select_allreduce(nbytes)

    @given(size=st.integers(1, 32), nbytes=st.integers(1, 1 << 21))
    @settings(max_examples=60, deadline=None)
    def test_predicted_cost_is_positive_and_rounds_consistent(self, size, nbytes):
        selector = CollectiveSelector(one_rank_per_node(size), size)
        chosen = selector.select_allreduce(nbytes)
        assert chosen.predicted_seconds >= 0.0
        assert chosen.internode_rounds <= chosen.rounds
        if size == 1:
            assert chosen.rounds == 0
