"""Hub plumbing: ambient context, views, comm counters, export, tracing."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.core import NULL_RANK_OBS, Observability, ObsConfig, current
from repro.simmpi.launcher import run_spmd
from repro.simmpi.tracing import COMPUTE, TraceRecord, Tracer


class TestAmbientContext:
    def test_inactive_thread_gets_null_view(self):
        assert current() is NULL_RANK_OBS
        assert not current().enabled
        # all null-view operations are no-ops
        with current().span("nothing"):
            current().count("c")
            current().observe("h", 1.0)
            current().gauge("g", 1.0)

    def test_span_activates_and_restores(self):
        obs = Observability()
        view = obs.wall_view()
        assert current() is NULL_RANK_OBS
        with view.span("outer"):
            assert current() is view
            with view.span("inner"):
                assert current() is view
            assert current() is view
        assert current() is NULL_RANK_OBS

    def test_ambient_metrics_reach_the_hub(self):
        obs = Observability()
        with obs.wall_view(rank=4).span("work"):
            current().count("widgets_total", 2.0, kind="x")
        assert obs.metrics.counter("widgets_total").value(
            rank=4, labels={"kind": "x"}
        ) == 2.0


class TestViewsAndConfig:
    def test_disabled_hub_hands_out_null_views(self):
        obs = Observability(ObsConfig(enabled=False))
        assert obs.wall_view() is NULL_RANK_OBS
        obs.metrics.counter("x").inc()
        assert obs.metrics.instruments() == []
        assert not obs.tracer.enabled

    def test_wall_view_spans_use_provided_clock(self):
        ticks = iter([10.0, 12.5])
        obs = Observability()
        view = obs.wall_view(now=lambda: next(ticks))
        with view.span("timed"):
            pass
        (root,) = obs.all_roots()[0]
        assert (root.t_start, root.t_end) == (10.0, 12.5)

    def test_check_balanced_raises_on_open_span(self):
        obs = Observability()
        view = obs.wall_view()
        cm = view.span("oops")
        cm.__enter__()
        with pytest.raises(ObservabilityError, match="oops"):
            obs.check_balanced()
        cm.__exit__(None, None, None)
        obs.check_balanced()

    def test_export_without_dir_raises(self):
        with pytest.raises(ObservabilityError, match="out_dir"):
            Observability().export()

class TestTracerIntegration:
    def test_launch_log_feeds_comm_metrics(self):
        """Each observed launch's log is folded into the simmpi_* counters,
        which therefore count exactly the hub tracer's records."""
        obs = Observability()

        def main(comm):
            if comm.rank == 0:
                comm.send(b"x" * 64, dest=1)
            elif comm.rank == 1:
                comm.recv(source=0)
            comm.allreduce(1.0)

        run_spmd(main, 2, observability=obs)
        run_spmd(main, 2, observability=obs)
        records = obs.tracer.snapshot()
        m = obs.metrics
        for rank in (0, 1):
            for kind in {r.kind for r in records}:
                expected = sum(1 for r in records if (r.rank, r.kind) == (rank, kind))
                assert m.counter("simmpi_events_total").value(
                    rank=rank, labels={"kind": kind}
                ) == expected
            assert m.counter("simmpi_bytes_sent_total").value(
                rank=rank
            ) == sum(
                r.nbytes for r in records if (r.rank, r.kind) == (rank, "send")
            )
            assert m.counter("simmpi_collectives_total").value(
                rank=rank, labels={"op": "allreduce"}
            ) == 2.0

    def test_snapshot_is_an_immutable_copy(self):
        tracer = Tracer()
        event = (COMPUTE, 1.0, "compute", 0.0, 1.0)
        tracer.log.rank(0).append(event)
        snap = tracer.snapshot()
        tracer.log.rank(0).append(event)
        assert len(snap) == 1 and len(tracer.snapshot()) == 2
        assert isinstance(snap, tuple)
        assert snap[0] == TraceRecord(rank=0, kind="compute", t_start=0.0,
                                      t_end=1.0, label="compute")

    def test_disabled_tracer_drops_records(self):
        obs = Observability(ObsConfig(enabled=False))
        run_spmd(lambda comm: comm.compute(1.0), 2, observability=obs)
        assert obs.tracer.snapshot() == ()
