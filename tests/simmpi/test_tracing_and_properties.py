"""Property-based tests of the runtime."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi.datatypes import MAX, MIN, SUM
from repro.simmpi.launcher import run_spmd


def run(fn, n, **kw):
    kw.setdefault("real_timeout", 25.0)
    return run_spmd(fn, n, **kw)


class TestCollectiveProperties:
    @given(
        n=st.integers(min_value=1, max_value=9),
        values=st.lists(
            st.integers(min_value=-1000, max_value=1000), min_size=9, max_size=9
        ),
    )
    @settings(max_examples=10, deadline=None)
    def test_allreduce_matches_reference(self, n, values):
        """allreduce(SUM/MAX/MIN) equals the numpy reference for any size
        and payload."""
        local = values[:n]

        def main(comm):
            v = local[comm.rank]
            return (
                comm.allreduce(v, op=SUM),
                comm.allreduce(v, op=MAX),
                comm.allreduce(v, op=MIN),
            )

        result = run(main, n)
        expected = (sum(local), max(local), min(local))
        assert all(r == expected for r in result.returns)

    @given(n=st.integers(min_value=1, max_value=8), seed=st.integers(0, 99))
    @settings(max_examples=10, deadline=None)
    def test_random_permutation_routing_completes(self, n, seed):
        """Every rank sends to a random permutation target and receives
        from exactly one source: no deadlock, all payloads delivered."""
        perm = np.random.default_rng(seed).permutation(n)

        def main(comm):
            dest = int(perm[comm.rank])
            comm.send(("from", comm.rank), dest=dest, tag=2)
            payload = comm.recv(tag=2)
            return payload

        result = run(main, n)
        received_from = sorted(r[1] for r in result.returns)
        assert received_from == list(range(n))

    @given(n=st.integers(min_value=2, max_value=8))
    @settings(max_examples=7, deadline=None)
    def test_bcast_from_every_root(self, n):
        def main(comm):
            out = []
            for root in range(comm.size):
                payload = f"r{root}" if comm.rank == root else None
                out.append(comm.bcast(payload, root=root))
            return out

        result = run(main, n)
        expected = [f"r{root}" for root in range(n)]
        assert all(r == expected for r in result.returns)

    @given(n=st.integers(min_value=1, max_value=8), seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_scan_prefix_property(self, n, seed):
        vals = np.random.default_rng(seed).integers(-50, 50, size=n).tolist()

        def main(comm):
            return comm.scan(vals[comm.rank], op=SUM)

        result = run(main, n)
        prefix = np.cumsum(vals)
        assert result.returns == prefix.tolist()

    @given(n=st.integers(min_value=1, max_value=6))
    @settings(max_examples=6, deadline=None)
    def test_alltoall_is_transpose(self, n):
        def main(comm):
            row = [(comm.rank, dst) for dst in range(comm.size)]
            return comm.alltoall(row)

        result = run(main, n)
        for dst, got in enumerate(result.returns):
            assert got == [(src, dst) for src in range(n)]


class TestClockInvariants:
    @given(
        n=st.integers(min_value=2, max_value=6),
        compute_times=st.lists(
            st.floats(min_value=0.0, max_value=2.0), min_size=6, max_size=6
        ),
    )
    @settings(max_examples=10, deadline=None)
    def test_barrier_bounds_all_clocks_below_max(self, n, compute_times):
        """After a barrier every clock is at least the slowest rank's
        compute time (happens-before through the barrier)."""
        times = compute_times[:n]

        def main(comm):
            comm.compute(times[comm.rank])
            comm.barrier()
            return comm.time

        result = run(main, n)
        slowest = max(times)
        assert all(t >= slowest - 1e-9 for t in result.returns)
