"""Causal layer: clean runs check out, perturbed ones do not.

Covers the acceptance matrix: zero happens-before violations on clean
runs for every collective variant at p in {2, 4, 8, 9} on both engines,
bit-identity of clocks / bytes / recordings with causal tracing on and
off, and a hypothesis sweep of random point-to-point traffic
cross-checked against the analysis layer's FIFO matching.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.reaction_diffusion import RDProblem, run_rd_distributed
from repro.obs.causal import SYNCHRONIZING_COLLECTIVES, CausalTracker
from repro.simmpi.launcher import run_spmd

ENGINES = ("events", "threads")


def _mixed_traffic(comm):
    """Compute, neighbour p2p, and a few synchronizing collectives."""
    rank, size = comm.rank, comm.size
    comm.compute(1e-6 * (rank + 1))
    total = comm.allreduce(np.ones(4) * rank)
    if size > 1:
        comm.send(np.arange(8) + rank, dest=(rank + 1) % size, tag=7)
        comm.recv(source=(rank - 1) % size, tag=7)
    comm.barrier()
    comm.alltoall([rank * size + d for d in range(size)])
    return float(total.sum())


class TestCleanRuns:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("num_ranks", (2, 4, 8, 9))
    def test_mixed_traffic_has_no_violations(self, engine, num_ranks):
        res = run_spmd(_mixed_traffic, num_ranks, trace=True, causal=True,
                       engine=engine)
        report = res.causal.check(res.tracer)
        assert report.ok, report.format()
        assert report.events_checked > 0
        assert report.messages_checked > 0
        assert report.rounds_checked > 0
        if num_ranks > 1:
            assert report.matches_checked > 0
        assert report.dropped_events == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rd_application_run_is_consistent(self, engine):
        problem = RDProblem(mesh_shape=(5, 5, 5), num_steps=3)

        def main(comm):
            return run_rd_distributed(comm, problem,
                                      preconditioner="block-jacobi")

        res = run_spmd(main, 2, trace=True, causal=True, engine=engine)
        report = res.causal.check(res.tracer)
        assert report.ok, report.format()
        assert report.rounds_checked > 0

    def test_engines_agree_on_clock_state(self):
        """Causal clocks are deterministic functions of the schedule,
        which is bit-identical across engines."""
        states = {}
        for engine in ENGINES:
            res = run_spmd(_mixed_traffic, 4, trace=True, causal=True,
                           engine=engine)
            states[engine] = [res.causal.clock_state(r) for r in range(4)]
        for (l_ev, v_ev), (l_th, v_th) in zip(states["events"],
                                              states["threads"]):
            assert l_ev == l_th
            assert np.array_equal(v_ev, v_th)


def _collective_program(name):
    def main(comm):
        rank, size = comm.rank, comm.size
        comm.compute(1e-6)
        if name == "barrier":
            comm.barrier()
        elif name == "bcast":
            comm.bcast(np.arange(4.0) if rank == 0 else None, root=0)
        elif name == "reduce":
            comm.reduce(np.ones(4) * rank, root=0)
        elif name == "allreduce":
            comm.allreduce(np.ones(4) * rank)
        elif name == "gather":
            comm.gather(rank, root=0)
        elif name == "allgather":
            comm.allgather(rank)
        elif name == "scatter":
            comm.scatter(list(range(size)) if rank == 0 else None, root=0)
        elif name == "alltoall":
            comm.alltoall([rank * size + d for d in range(size)])
        elif name == "scan":
            comm.scan(float(rank + 1))
        elif name == "exscan":
            comm.exscan(float(rank + 1))
        elif name == "reduce_scatter_block":
            comm.reduce_scatter_block([np.ones(2) * rank for _ in range(size)])
        else:  # pragma: no cover - guards the parametrize list
            raise AssertionError(name)
        comm.compute(1e-6)

    return main


ALL_COLLECTIVES = (
    "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall", "scan", "exscan", "reduce_scatter_block",
)


class TestCollectiveVariants:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", ALL_COLLECTIVES)
    def test_every_variant_checks_clean(self, engine, name):
        for num_ranks in (2, 4, 8, 9):
            res = run_spmd(_collective_program(name), num_ranks, trace=True,
                           causal=True, engine=engine)
            report = res.causal.check(res.tracer)
            assert report.ok, f"{name} p={num_ranks}: {report.format()}"
            if name in SYNCHRONIZING_COLLECTIVES:
                assert report.rounds_checked >= 1

    def test_sync_collectives_cover_the_frozenset(self):
        assert SYNCHRONIZING_COLLECTIVES <= set(ALL_COLLECTIVES)


class TestBitIdentity:
    def test_causal_tracing_perturbs_nothing(self):
        """Acceptance: clocks, bytes, traces and recordings are
        bit-identical with causal stamping on and off — the piggybacked
        stamp must never enter modeled sizes or recorded schedules."""
        runs = {}
        for causal in (False, True):
            res = run_spmd(_mixed_traffic, 4, trace=True, causal=causal,
                           record_schedule=True)
            runs[causal] = res
        off, on = runs[False], runs[True]
        assert off.clocks == on.clocks
        assert off.bytes_sent == on.bytes_sent
        assert off.messages_sent == on.messages_sent
        assert off.algorithm_counts == on.algorithm_counts
        trace_off = [(r.rank, r.kind, r.t_start, r.t_end, r.nbytes, r.peer,
                      r.tag) for r in off.tracer.snapshot()]
        trace_on = [(r.rank, r.kind, r.t_start, r.t_end, r.nbytes, r.peer,
                     r.tag) for r in on.tracer.snapshot()]
        assert trace_off == trace_on
        assert off.recording is not None and on.recording is not None
        assert off.recording.to_bytes() == on.recording.to_bytes()

    def test_replayed_runs_restamp_messages(self):
        from repro.simmpi.replay import replay_schedule

        base = run_spmd(_mixed_traffic, 4, trace=True, record_schedule=True)
        assert base.recording is not None
        replayed = replay_schedule(base.recording, trace=True, causal=True)
        assert replayed.causal is not None
        report = replayed.causal.check(replayed.tracer)
        assert report.ok, report.format()
        assert replayed.clocks == base.clocks


class TestRingBound:
    def test_events_limit_bounds_memory_but_keeps_clocks_exact(self):
        full = run_spmd(_mixed_traffic, 4, trace=True, causal=True)
        bounded_tracker = CausalTracker(4, events_limit=4)
        bounded = run_spmd(_mixed_traffic, 4, trace=True,
                           causal=bounded_tracker)
        assert bounded.causal is bounded_tracker
        assert bounded_tracker.dropped_events > 0
        for rank in range(4):
            assert len(bounded_tracker.events_for(rank)) <= 4
            l_full, v_full = full.causal.clock_state(rank)
            l_bound, v_bound = bounded_tracker.clock_state(rank)
            assert l_full == l_bound
            assert np.array_equal(v_full, v_bound)
        report = bounded_tracker.check(bounded.tracer)
        assert report.ok  # degraded checks must skip, never misfire
        assert report.dropped_events > 0
        assert report.rounds_checked == 0
        assert report.matches_checked == 0


def _traffic_program(edges):
    """sends first (non-blocking post), then receives — deadlock-free."""
    def main(comm):
        rank = comm.rank
        for i, (src, dst) in enumerate(edges):
            if src == rank:
                comm.send(np.arange(4) + i, dest=dst, tag=i)
        for i, (src, dst) in enumerate(edges):
            if dst == rank:
                comm.recv(source=src, tag=i)
        comm.barrier()

    return main


class TestRandomTraffic:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_matching_agrees_with_stamps(self, data):
        """Property (acceptance): for random traffic at random p in
        {2..9} on either engine, the analysis layer's FIFO matching
        agrees with every message's stamped origin and the vector-clock
        partial order holds."""
        num_ranks = data.draw(st.integers(min_value=2, max_value=9))
        engine = data.draw(st.sampled_from(ENGINES))
        pairs = st.tuples(
            st.integers(0, num_ranks - 1), st.integers(0, num_ranks - 1)
        ).filter(lambda e: e[0] != e[1])
        edges = data.draw(st.lists(pairs, min_size=1, max_size=12))
        res = run_spmd(_traffic_program(edges), num_ranks, trace=True,
                       causal=True, engine=engine)
        report = res.causal.check(res.tracer)
        assert report.ok, report.format()
        assert report.messages_checked >= len(edges)
        assert report.matches_checked == len(edges)
        # Vector-clock dominance across every matched message.
        events = [e for r in range(num_ranks) for e in res.causal.events_for(r)]
        sends = {(e.rank, e.seq): e for e in events if e.kind == "send"}
        for ev in events:
            if ev.kind == "recv" and ev.origin in sends:
                assert np.all(ev.vector >= sends[ev.origin].vector)


def _dup_reordered(comm):
    """Tag 0 on ``comm`` then on ``comm.dup()``; taken in the opposite order."""
    dup = comm.dup()
    if comm.rank == 0:
        comm.send(np.zeros(10, dtype=np.uint8), dest=1, tag=0)
        dup.send(np.zeros(1000, dtype=np.uint8), dest=1, tag=0)
    elif comm.rank == 1:
        dup.recv(source=0, tag=0)
        comm.recv(source=0, tag=0)


class TestMessageIdentity:
    """Receives pair with the send their ``(sender, seq)`` names, not
    with the first send that shares ``(src, dst, tag)``."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_dup_reordered_receives_pair_by_identity(self, engine):
        from repro.obs.core import Observability, ObsConfig
        from repro.obs.health import run_health
        from repro.obs.analysis import _match_events, _timelines, critical_path
        from repro.obs.exporters import chrome_trace_events

        hub = Observability(ObsConfig(out_dir=None))
        res = run_spmd(_dup_reordered, 2, observability=hub, causal=True,
                       engine=engine)
        report = res.causal.check(res.tracer)
        assert report.ok, report.format()
        assert report.matches_checked == 2

        # Chrome: every flow arrow joins slices of equal size.
        events = chrome_trace_events(hub)

        def slice_ending(flow_end, name):
            """The ``name`` slice on the arrow end's lane that ends there."""
            return min((e for e in events if e["ph"] == "X"
                        and e["name"] == name and e["tid"] == flow_end["tid"]),
                       key=lambda e: abs(e["ts"] + e["dur"] - flow_end["ts"]))

        starts = {e["id"]: e for e in events if e["ph"] == "s"}
        finishes = {e["id"]: e for e in events if e["ph"] == "f"}
        assert len(starts) == 2 and set(starts) == set(finishes)
        for flow_id, start in starts.items():
            send = slice_ending(start, "send")
            recv = slice_ending(finishes[flow_id], "recv")
            assert send["args"]["nbytes"] == recv["args"]["nbytes"]

        # critical_path and run_health share _match_events: each receive
        # pairs with the send its identity names...
        by_rank = _timelines(res.tracer.snapshot())
        recv_to_send, _ = _match_events(by_rank)
        assert len(recv_to_send) == 2
        for (rrank, ri), (srank, si) in recv_to_send.items():
            recv, send = by_rank[rrank][ri], by_rank[srank][si]
            assert send.message == recv.message
            assert send.nbytes == recv.nbytes
        # ...so the sender's late-receiver slack is measured per message.
        expected = sum(
            max(0.0, by_rank[r][i].t_start - by_rank[s][j].t_end)
            for (r, i), (s, j) in recv_to_send.items())
        assert run_health(hub).ranks[0].late_receiver == pytest.approx(expected)
        # The dup receive waited for the 1000-byte send, so the critical
        # path runs through that send into the receive it bound.
        big = next(r for r in res.tracer.snapshot() if r.kind == "send" and r.nbytes == 1000)
        path = [(s.rank, s.kind, s.t_end) for s in critical_path(hub).segments]
        first_recv = path.index(next(s for s in path if s[:2] == (1, "recv")))
        assert path[first_recv - 1] == (0, "send", big.t_end)

    def test_identities_stay_unique_across_launches_sharing_a_hub(self):
        """A resilient runner's attempts append to one hub tracer: the
        second launch's messages must not reuse the first one's names."""
        from repro.obs.core import Observability, ObsConfig
        from repro.obs.analysis import _match_events, _timelines

        hub = Observability(ObsConfig(out_dir=None))
        for _ in range(2):
            run_spmd(_dup_reordered, 2, observability=hub, causal=True)
            assert hub.causal.check(hub.tracer).ok
        records = hub.tracer.snapshot()
        names = [r.message for r in records if r.kind == "send"]
        assert len(names) == len(set(names))
        by_rank = _timelines(records)
        recv_to_send, _ = _match_events(by_rank)
        assert len(recv_to_send) == 4
        for (rrank, ri), (srank, si) in recv_to_send.items():
            assert by_rank[rrank][ri].nbytes == by_rank[srank][si].nbytes
