"""Tests for the extended communicator API: probes, waitall, scans."""

import time

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.simmpi.datatypes import SUM, MAX
from repro.simmpi.launcher import run_spmd


def run(fn, n, **kw):
    kw.setdefault("real_timeout", 20.0)
    return run_spmd(fn, n, **kw)


class TestProbes:
    def test_iprobe_empty(self):
        def main(comm):
            return comm.iprobe()

        assert run(main, 1).returns[0] is None

    def test_iprobe_sees_pending_without_consuming(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10), dest=1, tag=4)
                comm.send("marker", dest=1, tag=9)
            else:
                # Wait for the tagged marker so both messages are here.
                comm.recv(source=0, tag=9)
                status = comm.iprobe(source=0, tag=4)
                assert status is not None
                assert status.source == 0
                assert status.tag == 4
                assert status.nbytes == 80
                # Probe again: still there.
                assert comm.iprobe(source=0, tag=4) is not None
                payload = comm.recv(source=0, tag=4)
                assert comm.iprobe(source=0, tag=4) is None
                return payload.shape

        assert run(main, 2).returns[1] == (10,)

    def test_iprobe_respects_filters(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, dest=1, tag=5)
                comm.send(2, dest=1, tag=6)
            else:
                comm.probe(source=0, tag=6)
                assert comm.iprobe(source=0, tag=7) is None
                return True

        assert run(main, 2).returns[1]

    def test_blocking_probe_then_recv(self):
        def main(comm):
            if comm.rank == 0:
                time.sleep(0.05)
                comm.send({"x": 1}, dest=1, tag=3)
            else:
                status = comm.probe(source=0, tag=3)
                assert status.source == 0
                payload = comm.recv(source=0, tag=3)
                return payload

        assert run(main, 2).returns[1] == {"x": 1}

    def test_probe_merges_clock(self):
        def main(comm):
            if comm.rank == 0:
                comm.compute(2.0)
                comm.send(None, dest=1)
            else:
                comm.probe(source=0)
                return comm.time

        assert run(main, 2).returns[1] >= 2.0

    def test_probe_bad_peer(self):
        def main(comm):
            comm.iprobe(source=5)

        with pytest.raises(CommunicatorError):
            run(main, 2)


class TestWaitall:
    def test_waitall_collects_in_order(self):
        def main(comm):
            if comm.rank == 0:
                reqs = [comm.isend(i * 10, dest=1, tag=i) for i in range(4)]
                comm.waitall(reqs)
            else:
                reqs = [comm.irecv(source=0, tag=i) for i in range(4)]
                return comm.waitall(reqs)

        assert run(main, 2).returns[1] == [0, 10, 20, 30]


class TestExscan:
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_exscan_offsets(self, n):
        """The DOF-offset idiom: exscan of local counts."""

        def main(comm):
            local_count = comm.rank + 1
            prefix = comm.exscan(local_count, op=SUM)
            return 0 if prefix is None else prefix

        result = run(main, n)
        expected = [sum(range(1, r + 1)) for r in range(n)]
        assert result.returns == expected

    def test_exscan_rank0_none(self):
        def main(comm):
            return comm.exscan(5, op=SUM)

        assert run(main, 3).returns[0] is None


class TestReduceScatterBlock:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_elementwise_reduction(self, n):
        def main(comm):
            # rank r contributes [r*n + i for block i]
            values = [comm.rank * comm.size + i for i in range(comm.size)]
            return comm.reduce_scatter_block(values, op=SUM)

        result = run(main, n)
        for block, got in enumerate(result.returns):
            expected = sum(r * n + block for r in range(n))
            assert got == expected

    def test_max_op(self):
        def main(comm):
            values = [comm.rank] * comm.size
            return comm.reduce_scatter_block(values, op=MAX)

        assert run(main, 4).returns == [3, 3, 3, 3]

    def test_wrong_length_rejected(self):
        def main(comm):
            comm.reduce_scatter_block([1], op=SUM)

        with pytest.raises(CommunicatorError):
            run(main, 2)

    def test_numpy_blocks(self):
        def main(comm):
            values = [np.full(3, float(comm.rank + 1)) for _ in range(comm.size)]
            return comm.reduce_scatter_block(values, op=SUM)

        result = run(main, 3)
        for got in result.returns:
            assert np.allclose(got, 6.0)  # 1 + 2 + 3
