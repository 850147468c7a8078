"""Broadcast: one binomial tree, on both engines.

Every size from one rank to a non-power-of-two 27, rooted at the first,
middle and last rank, with an object and an ndarray payload.  A tree of
p ranks moves exactly p - 1 messages, and the two engines return the
same values and charge every rank the same virtual clock.  A tree node
serves its children one after another: its adapter injects one payload
at a time.
"""

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.network.model import GIGABIT_ETHERNET, NetworkModel
from repro.network.topology import ClusterTopology
from repro.simmpi.comm import SEND_OVERHEAD
from repro.simmpi.launcher import run_spmd

SIZES = (1, 2, 3, 5, 8, 13, 27)
CASES = [(p, root) for p in SIZES for root in sorted({0, p // 2, p - 1})]
KINDS = ("object", "ndarray")


def same(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def run_both(program, p):
    """The events run, after checking it against the threads run."""
    events, threads = (
        run_spmd(program, p, engine=engine, real_timeout=25.0)
        for engine in ("events", "threads")
    )
    assert events.clocks == threads.clocks
    assert all(same(a, b) for a, b in zip(events.returns, threads.returns))
    assert sum(events.messages_sent) == sum(threads.messages_sent) == p - 1
    return events


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p,root", CASES)
def test_bcast_delivers_the_roots_payload(p, root, kind):
    sent = (
        {"root": root, "cfg": ("binomial", [root] * 3)} if kind == "object"
        else np.arange(6, dtype=np.float32).reshape(2, 3) + root
    )

    def main(comm):
        return comm.bcast(sent if comm.rank == root else None, root=root)

    result = run_both(main, p)
    assert all(same(value, sent) for value in result.returns)
    assert result.algorithm_counts == {"bcast.binomial": p}


def test_the_root_injects_one_child_at_a_time():
    """p = 3, one rank per node on 1 GbE: the root's second child gets
    the payload one injection (``SEND_OVERHEAD + n / bandwidth``) after
    the first."""
    payload = np.zeros(125_000)  # 1 MB

    def main(comm):
        comm.bcast(payload if comm.rank == 0 else None)
        return comm.time

    topology = ClusterTopology(3, 1, NetworkModel(GIGABIT_ETHERNET))
    first, second = run_spmd(main, 3, topology=topology, engine="events",
                             real_timeout=25.0).returns[1:]
    injection = SEND_OVERHEAD + payload.nbytes / GIGABIT_ETHERNET.bandwidth
    assert second - first == pytest.approx(injection, rel=1e-9)


def test_an_unknown_algorithm_is_refused():
    """Only the allreduce has a menu: a name outside it is refused, and
    broadcast takes no ``algorithm=`` at all."""
    with pytest.raises(CommunicatorError, match="hypercube"):
        run_spmd(lambda comm: comm.allreduce(1, algorithm="hypercube"), 2)
    with pytest.raises(TypeError, match="algorithm"):
        run_spmd(lambda comm: comm.bcast(1, algorithm="binomial"), 2)
