"""Cross-engine bit-identity: events vs threads must agree exactly.

The event-driven scheduler replaces *when* rank code runs, never *what*
it computes or what the virtual clock charges — so for a deterministic
rank program, returns, virtual clocks, byte counters, and the per-rank
trace sequences must match the threaded engine bit for bit.  These
tests run the same program under both engines and compare everything.

Clock identity is asserted only for programs whose compute charges are
fixed constants; the RD/NS distributed solves charge *measured* wall
seconds to the virtual clock, so for those only the numerics (solution
values, errors) are compared — they are exact because both engines run
the same floating-point operations in the same order.
"""

import sys

import numpy as np
import pytest

from repro.network.model import GIGABIT_ETHERNET, NetworkModel
from repro.network.topology import ClusterTopology
from repro.simmpi.datatypes import MAX, SUM
from repro.simmpi.launcher import run_spmd
from repro.simmpi.collectives import HIER_ALLREDUCE_ALGORITHMS

RANK_COUNTS = (2, 4, 8, 9)
#: Every schedule name ``allreduce`` accepts, "auto" aside.
ALLREDUCE_ALGORITHMS = (
    "recursive_doubling", "ring", "rabenseifner", *HIER_ALLREDUCE_ALGORITHMS
)


def run_both(program, num_ranks, **kwargs):
    kwargs.setdefault("real_timeout", 60.0)
    kwargs.setdefault("trace", True)
    events = run_spmd(program, num_ranks, engine="events", **kwargs)
    threads = run_spmd(program, num_ranks, engine="threads", **kwargs)
    assert events.engine == "events" and threads.engine == "threads"
    return events, threads


def assert_identical(events, threads, clocks=True):
    """Everything the launcher exposes must match exactly (no tolerance)."""
    assert events.returns == threads.returns
    if clocks:
        assert events.clocks == threads.clocks
    assert events.bytes_sent == threads.bytes_sent
    assert events.messages_sent == threads.messages_sent
    assert events.tracer.snapshot() == threads.tracer.snapshot()


def collective_tour(comm):
    """Every collective variant plus deterministic point-to-point."""
    rank, size = comm.rank, comm.size
    out = []
    comm.compute(1e-6 * (rank + 1))
    out.append(comm.bcast(("seed", 42) if rank == 0 else None, root=0))
    out.append(comm.allreduce(rank + 1, op=MAX))
    out.append(comm.gather(rank * 2, root=0))
    out.append(comm.allgather((rank, rank**2)))
    out.append(comm.alltoall([rank * 100 + i for i in range(size)]))
    comm.barrier()
    # numpy payload through the reduction path
    vec = comm.allreduce(np.full(17, float(rank)), op=SUM)
    out.append(vec.tolist())
    # deterministic point-to-point ring: sends are eager, so every rank
    # sends before it receives
    comm.send(rank, dest=(rank + 1) % size)
    out.append(comm.recv(source=(rank - 1) % size))
    out.append(comm.time)
    return out


class TestCollectiveTour:
    @pytest.mark.parametrize("num_ranks", RANK_COUNTS)
    def test_bit_identical(self, num_ranks):
        events, threads = run_both(collective_tour, num_ranks)
        assert_identical(events, threads)


class TestAlgorithmVariants:
    @pytest.mark.parametrize("algorithm", ALLREDUCE_ALGORITHMS)
    @pytest.mark.parametrize("num_ranks", (4, 9))
    def test_allreduce_algorithms(self, algorithm, num_ranks):
        def main(comm):
            # ring/rabenseifner segment the payload, so it must be an array
            small = comm.allreduce(
                np.full(3, float(comm.rank)), op=SUM, algorithm=algorithm
            )
            large = comm.allreduce(
                np.arange(256, dtype=float) + comm.rank, algorithm=algorithm
            )
            return small.tolist(), large.tolist(), comm.time

        assert_identical(*run_both(main, num_ranks))


class TestSharedPlansOnSubCommunicators:
    """Each colour of a split reads one plan built by the parent's rank 0;
    under the threads engine its members consult it concurrently.
    Traced: every record lands in its physical rank's own buffer."""

    @staticmethod
    def topology():
        # 3 ranks a node: each colour of ``rank % 2`` spans every node,
        # with 1 or 2 members on it.
        return ClusterTopology(4, 3, NetworkModel(GIGABIT_ETHERNET))

    @pytest.mark.parametrize("num_ranks", (9, 12))
    def test_hierarchical_collectives_per_colour(self, num_ranks):
        def main(comm):
            sub = comm.split(comm.rank % 2)
            root = sub.size - 1
            total = sub.allreduce(
                np.full(5, float(comm.rank)), algorithm="hier_recursive_doubling"
            )
            word = sub.bcast(
                f"from {comm.rank}" if sub.rank == root else None, root=root
            )
            sub.barrier()
            return sub.rank, total.tolist(), word, comm.time

        events, threads = run_both(main, num_ranks, topology=self.topology())
        assert_identical(events, threads)
        for rank, (sub_rank, total, word, _time) in enumerate(events.returns):
            members = range(rank % 2, num_ranks, 2)
            assert sub_rank == rank // 2
            assert total == [float(sum(members))] * 5
            assert word == f"from {members[-1]}"
        assert events.algorithm_counts == threads.algorithm_counts
        assert events.algorithm_counts["allreduce.hier_recursive_doubling"] == num_ranks
        # The split's own broadcast of the colour map, then each colour's.
        assert events.algorithm_counts["bcast.binomial"] == 2 * num_ranks

    def test_colours_fill_their_plans_in_interleaved_order(self):
        """Colour 0 runs allreduce, bcast, barrier while colour 1 runs them
        in reverse: the two plans' memos fill in opposite orders, and a
        third communicator (a dup of the world) fills between them."""

        def main(comm):
            color = comm.rank % 2
            sub = comm.split(color)
            steps = [
                lambda: sub.allreduce(comm.rank + 1, algorithm="hier_recursive_doubling"),
                lambda: sub.bcast(color if sub.rank == 0 else None),
                lambda: sub.barrier(),
            ]
            out = [step() for step in (steps if color == 0 else reversed(steps))]
            world = comm.dup().allreduce(1)
            again = [step() for step in steps]
            return out if color == 0 else out[::-1], world, again, comm.time

        # Switch rank threads far more often than the default 5 ms, so the
        # threads engine's ranks really do race their memo fills.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            events, threads = run_both(main, 10, topology=self.topology())
        finally:
            sys.setswitchinterval(interval)
        assert_identical(events, threads)
        for rank, (first, world, again, _time) in enumerate(events.returns):
            expected = [sum(r + 1 for r in range(rank % 2, 10, 2)), rank % 2, None]
            assert first == expected and again == expected
            assert world == 10


class TestDistributedSolves:
    @pytest.mark.parametrize("num_ranks", (2, 4))
    def test_rd_solutions_identical(self, num_ranks):
        from repro.apps.reaction_diffusion import RDProblem, run_rd_distributed

        problem = RDProblem(mesh_shape=(4, 4, 4), num_steps=3)

        def main(comm):
            values, _log, nodal_error = run_rd_distributed(
                comm, problem, discard=1
            )
            return list(map(float, values)), nodal_error

        events, threads = run_both(main, num_ranks, trace=False)
        # wall-clock compute charges make clocks engine-independent only
        # in distribution, not bitwise -- compare the numerics exactly
        assert events.returns == threads.returns

    def test_ns_errors_identical(self):
        from repro.apps.navier_stokes import NSProblem, run_ns_distributed

        problem = NSProblem(mesh_shape=(4, 4, 4), num_steps=2)

        def main(comm):
            v_err, p_err, _log = run_ns_distributed(comm, problem, discard=1)
            return float(v_err), float(p_err)

        events, threads = run_both(main, 2, trace=False)
        assert events.returns == threads.returns
