"""Tests for per-communicator collective counters and traced collectives."""

from collections import Counter

import numpy as np

from repro.simmpi import SUM, run_spmd


def run(fn, n, **kw):
    kw.setdefault("real_timeout", 25.0)
    return run_spmd(fn, n, **kw)


class TestCollectiveCounts:
    def test_counts_by_kind(self):
        def main(comm):
            comm.allreduce(1.0, op=SUM)
            comm.allreduce(np.ones(3), op=SUM)
            comm.bcast(42 if comm.rank == 0 else None, root=0)
            comm.barrier()
            return dict(comm.collective_counts)

        for counts in run(main, 3).returns:
            assert counts["allreduce"] == 2
            assert counts["bcast"] == 1
            assert counts["barrier"] == 1
            assert "reduce" not in counts

    def test_point_to_point_not_counted(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.zeros(4), dest=1)
            elif comm.rank == 1:
                comm.recv(source=0)
            return dict(comm.collective_counts)

        for counts in run(main, 2).returns:
            assert counts == {}


class TestTracerCollectives:
    def test_collective_records_and_counts(self):
        def main(comm):
            comm.allreduce(comm.rank, op=SUM)
            comm.allreduce(comm.rank * 2.0, op=SUM)
            comm.bcast("x" if comm.rank == 0 else None, root=0)

        result = run(main, 4, trace=True)
        tracer = result.tracer
        rounds = Counter(
            (r.label, r.rank) for r in tracer.snapshot() if r.kind == "collective"
        )
        assert rounds[("allreduce", 0)] == 2
        assert rounds[("bcast", 0)] == 1
        # Every rank participates in every collective.
        assert sum(n for (label, _), n in rounds.items() if label == "allreduce") == 2 * 4
        by_label = Counter(
            r.label for r in tracer.snapshot()
            if (r.rank, r.kind) == (1, "collective")
        )
        assert by_label == {"allreduce": 2, "bcast": 1}

    def test_collective_records_have_duration(self):
        def main(comm):
            comm.compute(0.5)
            comm.allreduce(np.ones(8), op=SUM)

        result = run(main, 2, trace=True)
        records = [r for r in result.tracer.records if r.kind == "collective"]
        assert records
        for record in records:
            assert record.label == "allreduce"
            assert record.t_end >= record.t_start >= 0.0
