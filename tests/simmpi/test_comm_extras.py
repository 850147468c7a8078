"""Tests for the extended communicator API: probes and waitall."""

import time

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.simmpi.datatypes import ANY_SOURCE, ANY_TAG, COLL_TAG_BASE
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

    @pytest.mark.parametrize("engine", ["events", "threads"])
    def test_probe_leaves_the_message_where_it_was(self, engine):
        """A probe consumes nothing, so a later wildcard receive still
        takes one sender's messages in the order they were sent."""
        def main(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                return None
            assert comm.probe(source=0, tag=2).tag == 2
            return [comm.recv(source=0), comm.recv(source=0)]

        assert run(main, 2, engine=engine).returns[1] == ["first", "second"]

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

    @pytest.mark.parametrize("source", [-2, 7])
    @pytest.mark.parametrize("engine", ["events", "threads"])
    def test_irecv_bad_peer_is_refused_when_posted(self, engine, source):
        """As ``recv`` and the probes do: a negative source must not index
        the group from the end and match another rank's message."""
        def main(comm):
            comm.send(f"from{comm.rank}", dest=0, tag=1)
            comm.barrier()
            if comm.rank == 0:
                return comm.irecv(source=source, tag=1).test()

        with pytest.raises(CommunicatorError, match=f"peer rank {source} outside"):
            run(main, 4, engine=engine)


class TestReservedTags:
    """The tags above ``COLL_TAG_BASE`` carry collectives' own messages:
    a user receive may not name one, and ``ANY_TAG`` does not match one."""

    @pytest.mark.parametrize("verb", ["recv", "recv_status", "irecv", "probe", "iprobe"])
    @pytest.mark.parametrize("engine", ["events", "threads"])
    def test_a_receive_naming_a_collective_tag_is_refused(self, engine, verb):
        def main(comm):
            if comm.rank == 0:
                comm.bcast("secret")
            else:
                return getattr(comm, verb)(source=0, tag=COLL_TAG_BASE + 1)

        with pytest.raises(CommunicatorError, match="user tags must be in"):
            run(main, 2, engine=engine)

    @pytest.mark.parametrize("engine", ["events", "threads"])
    def test_a_negative_tag_other_than_any_tag_is_refused(self, engine):
        def main(comm):
            comm.recv(source=0, tag=-2)

        with pytest.raises(CommunicatorError, match="user tags must be in"):
            run(main, 1, engine=engine)

    @pytest.mark.parametrize("engine", ["events", "threads"])
    def test_any_tag_leaves_a_collective_s_message_to_the_collective(self, engine):
        """MPI semantics: the wildcard takes the user message sent after
        the broadcast, and the broadcast still gets its own."""
        def main(comm):
            if comm.rank == 0:
                comm.bcast("secret")
                comm.send("user", dest=1, tag=5)
                return None
            received = comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
            return received, comm.bcast(None)

        assert run(main, 2, engine=engine).returns[1] == ("user", "secret")


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
