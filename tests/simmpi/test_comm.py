"""Tests for the Communicator: point-to-point, collectives, virtual time."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommunicatorError, DeadlockError, LaunchError
from repro.network.model import GIGABIT_ETHERNET, INFINIBAND_4X_DDR, NetworkModel
from repro.network.topology import ClusterTopology
from repro.simmpi.launcher import run_spmd
from repro.simmpi.clock import VirtualClock
from repro.simmpi.datatypes import (
    ANY_SOURCE,
    MAX,
    MIN,
    PROD,
    SUM,
    Message,
    Status,
    payload_nbytes,
)


def topo(nodes=4, cores=4, link=GIGABIT_ETHERNET):
    return ClusterTopology(nodes, cores, NetworkModel(link))


def run(fn, n, **kw):
    kw.setdefault("real_timeout", 20.0)
    return run_spmd(fn, n, **kw)


class TestDatatypes:
    def test_payload_nbytes_numpy(self):
        assert payload_nbytes(np.zeros(10)) == 80
        assert payload_nbytes(np.zeros(10, dtype=np.float32)) == 40

    def test_payload_nbytes_builtin(self):
        assert payload_nbytes(None) == 0
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes("hi") == 2
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes((1, 2.0)) == 24
        assert payload_nbytes({"a": 1}) == 17

    def test_payload_nbytes_generic_object(self):
        class Thing:
            pass

        assert payload_nbytes(Thing()) > 0

    def test_message_matching(self):
        msg = Message(context=0, source=2, tag=7, payload=None, nbytes=0, arrival_time=0.0)
        assert msg.matches(2, 7)
        assert msg.matches(ANY_SOURCE, 7)
        assert msg.matches(2, -1)
        assert not msg.matches(1, 7)
        assert not msg.matches(2, 8)


class TestVirtualClock:
    def test_advance_and_merge(self):
        c = VirtualClock()
        c.advance(1.5)
        c.merge(1.0)  # backwards merge is a no-op
        assert c.time == 1.5
        c.merge(2.0)
        assert c.time == 2.0

    def test_validation(self):
        from repro.errors import SimMPIError

        with pytest.raises(SimMPIError):
            VirtualClock(-1.0)
        with pytest.raises(SimMPIError):
            VirtualClock().advance(-0.1)


class TestPointToPoint:
    def test_ping(self):
        def main(comm):
            if comm.rank == 0:
                comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
                return None
            if comm.rank == 1:
                return comm.recv(source=0, tag=11)
            return None

        result = run(main, 2)
        assert result.returns[1] == {"a": 7, "b": 3.14}

    def test_numpy_roundtrip(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.arange(100, dtype="i"), dest=1, tag=77)
            elif comm.rank == 1:
                return comm.recv(source=0, tag=77)

        result = run(main, 2)
        assert np.array_equal(result.returns[1], np.arange(100, dtype="i"))

    def test_any_source_and_status(self):
        def main(comm):
            if comm.rank == 0:
                got = []
                for _ in range(2):
                    payload, status = comm.recv_status(source=ANY_SOURCE)
                    assert isinstance(status, Status)
                    got.append((status.source, payload))
                return sorted(got)
            comm.send(comm.rank * 10, dest=0)

        result = run(main, 3)
        assert result.returns[0] == [(1, 10), (2, 20)]

    def test_tag_selectivity(self):
        """A receive for tag 2 must skip an earlier tag-1 message."""

        def main(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
            elif comm.rank == 1:
                second = comm.recv(source=0, tag=2)
                first = comm.recv(source=0, tag=1)
                return (first, second)

        result = run(main, 2)
        assert result.returns[1] == ("first", "second")

    def test_fifo_per_source_and_tag(self):
        def main(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=0)
            elif comm.rank == 1:
                return [comm.recv(source=0, tag=0) for _ in range(5)]

        assert run(main, 2).returns[1] == [0, 1, 2, 3, 4]

    def test_isend_irecv(self):
        def main(comm):
            if comm.rank == 0:
                req = comm.isend([1, 2, 3], dest=1, tag=5)
                req.wait()
            elif comm.rank == 1:
                req = comm.irecv(source=0, tag=5)
                return req.wait()

        assert run(main, 2).returns[1] == [1, 2, 3]

    def test_irecv_test_polling(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("x", dest=1)
            elif comm.rank == 1:
                req = comm.irecv(source=0)
                import time

                done, payload = req.test()
                for _ in range(100):
                    if done:
                        break
                    time.sleep(0.01)
                    done, payload = req.test()
                return done, payload

        done, payload = run(main, 2).returns[1]
        assert done and payload == "x"

    @pytest.mark.parametrize("complete", ["wait", "test"])
    def test_irecv_completion_is_traced(self, complete):
        """wait() and test() leave the same "recv" trace record: a polled
        completion must not look like an orphan send to obs.analysis."""

        def main(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=3)
                return None
            req = comm.irecv(source=0, tag=3)
            if complete == "wait":
                return req.wait()
            done, payload = req.test()  # rank 0 ran first: already posted
            assert done
            return payload

        result = run(main, 2, trace=True)
        assert result.returns[1] == "x"
        assert [r.kind for r in result.tracer.snapshot()].count("send") == 1
        (recv,) = [r for r in result.tracer.snapshot()
                   if (r.rank, r.kind) == (1, "recv")]
        assert (recv.peer, recv.tag, recv.nbytes) == (0, 3, payload_nbytes("x"))

    def test_sendrecv(self):
        def main(comm):
            peer = 1 - comm.rank
            return comm.sendrecv(comm.rank, dest=peer, source=peer)

        result = run(main, 2)
        assert result.returns == [1, 0]

    def test_send_to_self(self):
        def main(comm):
            comm.send("me", dest=comm.rank, tag=3)
            return comm.recv(source=comm.rank, tag=3)

        assert run(main, 1).returns[0] == "me"

    def test_invalid_peer_rejected(self):
        def main(comm):
            comm.send(1, dest=5)

        with pytest.raises(CommunicatorError):
            run(main, 2)

    def test_invalid_tag_rejected(self):
        def main(comm):
            comm.send(1, dest=0, tag=1 << 22)

        with pytest.raises(CommunicatorError):
            run(main, 1)


class TestVirtualTime:
    def test_compute_advances_clock(self):
        def main(comm):
            comm.compute(2.5)
            return comm.time

        assert run(main, 1).returns[0] == pytest.approx(2.5, abs=1e-9)

    def test_receiver_waits_for_sender(self):
        """Receiver's clock jumps to the sender's send time + transfer."""

        def main(comm):
            if comm.rank == 0:
                comm.compute(1.0)
                comm.send(np.zeros(1), dest=1)
                return comm.time
            data = comm.recv(source=0)
            return comm.time

        result = run(main, 2, topology=topo(nodes=1, cores=2))
        assert result.returns[1] > 1.0
        assert result.returns[1] == pytest.approx(1.0, abs=1e-3)

    def test_earlier_arrival_does_not_rewind(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, dest=1)
            else:
                comm.compute(5.0)
                comm.recv(source=0)
                return comm.time

        result = run(main, 2)
        assert result.returns[1] == pytest.approx(5.0, abs=1e-3)

    def test_internode_slower_than_intranode(self):
        def main(comm, partner):
            if comm.rank == 0:
                comm.send(np.zeros(125_000), dest=partner)  # 1 MB
            elif comm.rank == partner:
                comm.recv(source=0)
                return comm.time

        same_node = run(main, 2, topology=topo(), args=(1,)).returns[1]
        t = topo()
        cross_node = run(lambda c: main(c, 4), 5, topology=t).returns[4]
        assert cross_node > 5 * same_node

    def test_ib_faster_than_ethernet(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.zeros(125_000), dest=4)
            elif comm.rank == 4:
                comm.recv(source=0)
                return comm.time

        eth = run(main, 5, topology=topo(link=GIGABIT_ETHERNET)).returns[4]
        ib = run(main, 5, topology=topo(link=INFINIBAND_4X_DDR)).returns[4]
        assert ib < eth / 5

    def test_ethernet_saturates_under_a_bandwidth_bound_collective(self):
        """64 KiB recursive-doubling allreduce + barrier on 2 x 32-core
        nodes: the 1 GbE model must cost at least twice InfiniBand."""

        def main(comm):
            comm.allreduce(np.ones(8192), algorithm="recursive_doubling")
            comm.barrier()

        eth, ib = (
            run(main, 64, topology=topo(nodes=2, cores=32, link=link)).max_time
            for link in (GIGABIT_ETHERNET, INFINIBAND_4X_DDR)
        )
        assert eth >= 2 * ib


class TestCollectives:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
    def test_bcast(self, n):
        def main(comm):
            data = {"k": [1, 2, 3]} if comm.rank == 0 else None
            return comm.bcast(data, root=0)

        result = run(main, n)
        assert all(r == {"k": [1, 2, 3]} for r in result.returns)

    def test_bcast_nonzero_root(self):
        def main(comm):
            data = "payload" if comm.rank == 2 else None
            return comm.bcast(data, root=2)

        assert all(r == "payload" for r in run(main, 5).returns)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_reduce_sum(self, n):
        def main(comm):
            return comm.reduce(comm.rank + 1, op=SUM, root=0)

        result = run(main, n)
        assert result.returns[0] == n * (n + 1) // 2
        assert all(r is None for r in result.returns[1:])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 13])
    def test_allreduce_sum(self, n):
        def main(comm):
            return comm.allreduce(comm.rank + 1, op=SUM)

        result = run(main, n)
        assert all(r == n * (n + 1) // 2 for r in result.returns)

    @pytest.mark.parametrize("op,expected", [(MAX, 6), (MIN, 0), (PROD, 0)])
    def test_allreduce_ops(self, op, expected):
        def main(comm):
            return comm.allreduce(comm.rank, op=op)

        assert all(r == expected for r in run(main, 7).returns)

    def test_allreduce_numpy_arrays(self):
        def main(comm):
            return comm.allreduce(np.full(4, float(comm.rank)), op=SUM)

        result = run(main, 5)
        for r in result.returns:
            assert np.allclose(r, 10.0)

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_gather(self, n):
        def main(comm):
            return comm.gather(comm.rank**2, root=0)

        result = run(main, n)
        assert result.returns[0] == [r**2 for r in range(n)]

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_allgather(self, n):
        def main(comm):
            return comm.allgather((comm.rank + 1) ** 2)

        result = run(main, n)
        expected = [(r + 1) ** 2 for r in range(n)]
        assert all(r == expected for r in result.returns)

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_scatter(self, n):
        def main(comm):
            values = [f"item{i}" for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(values, root=0)

        result = run(main, n)
        assert result.returns == [f"item{i}" for i in range(n)]

    def test_scatter_wrong_length(self):
        def main(comm):
            values = [1] if comm.rank == 0 else None
            return comm.scatter(values, root=0)

        with pytest.raises(CommunicatorError):
            run(main, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_alltoall(self, n):
        def main(comm):
            values = [100 * comm.rank + dst for dst in range(comm.size)]
            return comm.alltoall(values)

        result = run(main, n)
        for dst in range(n):
            assert result.returns[dst] == [100 * src + dst for src in range(n)]

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_scan(self, n):
        def main(comm):
            return comm.scan(comm.rank + 1, op=SUM)

        result = run(main, n)
        assert result.returns == [(r + 1) * (r + 2) // 2 for r in range(n)]

    def test_barrier_synchronizes_clocks(self):
        def main(comm):
            comm.compute(float(comm.rank))  # rank 3 is the laggard
            comm.barrier()
            return comm.time

        result = run(main, 4)
        assert min(result.returns) >= 3.0

    def test_mixed_collective_sequence(self):
        """Back-to-back collectives must not cross-match messages."""

        def main(comm):
            a = comm.allreduce(1, op=SUM)
            b = comm.bcast("x" if comm.rank == 0 else None)
            comm.barrier()
            c = comm.allgather(comm.rank)
            return (a, b, c)

        result = run(main, 6)
        for a, b, c in result.returns:
            assert a == 6 and b == "x" and c == list(range(6))


class TestSplit:
    def test_split_into_halves(self):
        def main(comm):
            color = comm.rank % 2
            sub = comm.split(color)
            total = sub.allreduce(comm.rank, op=SUM)
            return (sub.rank, sub.size, total)

        result = run(main, 6)
        for world_rank, (sub_rank, sub_size, total) in enumerate(result.returns):
            assert sub_size == 3
            expected_total = sum(r for r in range(6) if r % 2 == world_rank % 2)
            assert total == expected_total
            assert sub_rank == world_rank // 2

    def test_split_key_ordering(self):
        def main(comm):
            sub = comm.split(color=0, key=-comm.rank)  # reverse order
            return sub.rank

        result = run(main, 4)
        assert result.returns == [3, 2, 1, 0]

    def test_world_and_sub_messages_do_not_collide(self):
        def main(comm):
            sub = comm.split(comm.rank % 2)
            if comm.rank == 0:
                comm.send("world", dest=2, tag=9)
            if comm.rank == 2:
                sub_val = sub.bcast("sub" if sub.rank == 0 else None)
                world_val = comm.recv(source=0, tag=9)
                return (sub_val, world_val)
            sub.bcast("sub" if sub.rank == 0 else None)

        assert run(main, 4).returns[2] == ("sub", "world")

    def test_dup(self):
        def main(comm):
            dup = comm.dup()
            assert dup.context != comm.context
            return dup.allreduce(1, op=SUM)

        assert all(r == 3 for r in run(main, 3).returns)

    def test_sub_communicator_traffic_is_the_ranks_traffic(self):
        """Counters are per physical rank: what a split/dup communicator
        sends shows on its parent and in the SPMDResult."""

        def main(comm):
            sub = comm.split(comm.rank % 2)
            before = (comm.bytes_sent, comm.messages_sent, comm.offnode_bytes_sent)
            sub.allreduce(np.ones(1000), algorithm="recursive_doubling")
            assert (sub.bytes_sent, sub.messages_sent) == (
                comm.bytes_sent, comm.messages_sent
            )
            assert sub.collective_counts is comm.collective_counts
            return (
                comm.bytes_sent - before[0],
                comm.messages_sent - before[1],
                comm.offnode_bytes_sent - before[2],
            )

        def baseline(comm):
            comm.split(comm.rank % 2)

        # 2 ranks per node: each colour's pair {0, 2} / {1, 3} spans nodes.
        result = run(main, 4, topology=topo(nodes=2, cores=2))
        assert result.returns == [(8000, 1, 8000)] * 4
        split_only = run(baseline, 4, topology=topo(nodes=2, cores=2))
        assert [b - a for a, b in zip(split_only.bytes_sent, result.bytes_sent)] == (
            [8000] * 4
        )
        assert [
            b - a for a, b in zip(split_only.messages_sent, result.messages_sent)
        ] == [1] * 4
        assert result.algorithm_counts["allreduce.recursive_doubling"] == 4

    def test_sub_communicator_trace_records_carry_world_ranks(self):
        """A split communicator's events belong to the physical rank that
        produced them, with world-rank peers -- not to its local rank."""

        def main(comm):
            sub = comm.split(comm.rank % 2)  # colour 1 is world {1, 3}
            if sub.rank == 0:
                sub.send(b"x" * 8, dest=1, tag=5)
            else:
                sub.recv(source=0, tag=5)
            sub.barrier()

        tracer = run(main, 4, trace=True).tracer
        assert {r.rank for r in tracer.snapshot()} == set(range(4))
        p2p = [(r.kind, r.rank, r.peer) for r in tracer.snapshot() if r.tag == 5]
        assert p2p == [
            ("send", 0, 2), ("send", 1, 3), ("recv", 2, 0), ("recv", 3, 1),
        ]
        barriers = Counter(
            r.rank for r in tracer.snapshot()
            if r.kind == "collective" and r.label == "barrier"
        )
        assert barriers == {r: 1 for r in range(4)}

    def test_dup_does_not_dodge_the_volume_cap(self):
        """Traffic is tallied per physical rank, not per communicator, so
        a dup or split cannot hide bytes from a per-rank volume limit."""

        def main(comm):
            world, seen = comm, []
            for _ in range(4):
                comm = comm.dup()
                comm.allreduce(np.ones(100))  # 800 bytes a round
                seen.append((comm.bytes_sent, world.bytes_sent))
            half = world.split(color=world.rank % 2, key=world.rank)
            half.send(np.ones(10), dest=(half.rank + 1) % half.size)
            half.recv()
            seen.append((half.bytes_sent, comm.bytes_sent, world.bytes_sent))
            return seen, world.messages_sent == half.messages_sent

        for seen, same_messages in run(main, 4).returns:
            assert same_messages
            assert all(len(set(tally)) == 1 for tally in seen)
            totals = [tally[0] for tally in seen]
            assert totals == sorted(totals) and len(set(totals)) == len(totals)


class TestFailureModes:
    def test_deadlock_detection(self):
        def main(comm):
            comm.recv(source=comm.rank)  # nobody ever sends

        with pytest.raises(DeadlockError):
            run(main, 2, real_timeout=10.0)

    def test_rank_exception_propagates(self):
        def main(comm):
            if comm.rank == 1:
                raise ValueError("boom on rank 1")
            comm.recv(source=1)  # would hang without abort propagation

        with pytest.raises(ValueError, match="boom"):
            run(main, 2, real_timeout=15.0)

    def test_too_many_ranks_for_machine(self):
        with pytest.raises(LaunchError):
            run(lambda comm: None, 1000, topology=topo(nodes=2, cores=4))

    def test_zero_ranks(self):
        with pytest.raises(LaunchError):
            run(lambda comm: None, 0)


class TestTracing:
    def test_send_recv_traced(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10), dest=1)
            else:
                comm.recv(source=0)

        result = run(main, 2, trace=True)
        records = result.tracer.snapshot()
        assert [r.kind for r in records].count("recv") == 1
        sends = [(r.rank, r.nbytes) for r in records if r.kind == "send"]
        assert sends == [(0, 80)]

    def test_bytes_accounting_in_result(self):
        def main(comm):
            comm.allreduce(np.zeros(100), op=SUM)

        result = run(main, 4)
        assert all(b > 0 for b in result.bytes_sent)
        assert result.total_bytes == sum(result.bytes_sent)

    @given(n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_clock_monotonicity_property(self, n):
        """Final clocks are >= any compute time charged."""

        def main(comm):
            comm.compute(0.25)
            comm.barrier()
            comm.compute(0.25)
            return comm.time

        result = run(main, n)
        assert all(t >= 0.5 for t in result.returns)
