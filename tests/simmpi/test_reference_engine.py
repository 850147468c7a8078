"""The thread-per-rank reference engine's failure paths and probes.

The cross-engine tests compare the scheduler against this engine on
programs that succeed; these pin what it does when a program does not:
exact deadlock detection under its one lock, the real-time bound, the
root cause a failed launch re-raises, and the rank threads a launch
leaves behind (none).  The probe test shortens the interpreter's switch
interval so the rank threads preempt each other between almost every
bytecode.
"""

import sys
import threading
import time

import pytest

from repro.errors import DeadlockError, SimMPIError
from repro.simmpi.launcher import run_spmd


def run(fn, n, **kw):
    kw.setdefault("real_timeout", 20.0)
    return run_spmd(fn, n, engine="threads", **kw)


def rank_threads():
    return [t for t in threading.enumerate() if t.name.startswith("simmpi-rank-")]


@pytest.fixture(autouse=True)
def no_rank_thread_outlives_its_launch():
    assert rank_threads() == []
    yield
    assert rank_threads() == []


@pytest.fixture()
def preemptive():
    """Switch threads every 10 µs instead of every 5 ms."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestFailurePaths:
    def test_a_ring_of_receives_deadlocks_in_exactly_one_rank(self):
        seen = []

        def main(comm):
            try:
                comm.recv(source=(comm.rank - 1) % comm.size)
            except SimMPIError as exc:
                seen.append(exc)
                raise

        start = time.monotonic()
        with pytest.raises(DeadlockError) as info:
            run(main, 4)
        assert time.monotonic() - start < 0.5
        kinds = sorted(type(exc).__name__ for exc in seen)
        assert kinds == ["DeadlockError", "SimMPIError", "SimMPIError",
                         "SimMPIError"]
        bare = [exc for exc in seen if type(exc) is DeadlockError]
        assert info.value is bare[0]
        assert all(exc.__cause__ is info.value for exc in seen
                   if exc is not info.value)

    def test_the_last_rank_returning_leaves_the_rest_deadlocked(self):
        def main(comm):
            if comm.rank != 2:
                comm.recv(source=2)
                return
            # Return only once both peers wait, so no receive is last.
            deadline = time.monotonic() + 5.0
            while comm.engine._idle < 2 and time.monotonic() < deadline:
                time.sleep(0.001)

        start = time.monotonic()
        with pytest.raises(DeadlockError, match="last running rank returned"):
            run(main, 3)
        assert time.monotonic() - start < 0.5

    def test_a_receive_no_one_answers_hits_the_real_timeout(self):
        def main(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=7)
            else:
                time.sleep(0.6)  # busy outside communication: no deadlock

        start = time.monotonic()
        with pytest.raises(SimMPIError, match="rank 0 timed out") as info:
            run(main, 2, real_timeout=0.1)
        assert type(info.value) is SimMPIError
        assert time.monotonic() - start < 5.0

    def test_a_rank_exception_is_the_root_cause(self):
        def main(comm):
            if comm.rank == 2:
                raise ValueError("rank 2 exploded")
            comm.barrier()

        with pytest.raises(ValueError, match="rank 2 exploded"):
            run(main, 4)


class TestProbesUnderPreemption:
    #: Launches per test: each one interleaves the rank threads anew.
    LAUNCHES = 20

    def test_probe_iprobe_and_test_see_exactly_what_is_queued(self, preemptive):
        def main(comm):
            left = (comm.rank - 1) % comm.size
            right = (comm.rank + 1) % comm.size
            for tag in (3, 1, 2):
                comm.send((comm.rank, tag, "x" * tag), right, tag=tag)
            late = comm.irecv(source=left, tag=9)
            assert late.test() == (False, None)  # left waits for our "go"
            comm.send("go", left, tag=8)
            assert comm.recv(source=right, tag=8) == "go"
            comm.send(("late", comm.rank), right, tag=9)
            got = []
            for tag in (1, 2, 3):
                status = comm.probe(source=left, tag=tag)
                assert (status.source, status.tag) == (left, tag)
                again = comm.iprobe(source=left, tag=tag)
                assert (again.source, again.tag, again.nbytes) == (
                    status.source, status.tag, status.nbytes)
                request = comm.irecv(source=left, tag=tag)
                done, payload = request.test()
                assert done
                assert comm.iprobe(source=left, tag=tag) is None
                got.append(payload)
            assert late.wait() == ("late", left)
            return got

        for _ in range(self.LAUNCHES):
            returns = run(main, 4).returns
            assert returns == [
                [((r - 1) % 4, tag, "x" * tag) for tag in (1, 2, 3)]
                for r in range(4)
            ]
