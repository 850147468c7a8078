"""The event-driven engine: selection, scheduling policy, failure paths.

The scheduler's ``(virtual time, rank)`` ordering is a documented
contract (:mod:`repro.simmpi.events` module docstring): these tests pin
it with deterministic wildcard-receive programs that would race under
the threaded engine, and cover the engine-specific machinery — the
launcher keyword (the only selector: no environment variable is read),
exact deadlock detection, fault kills as scheduler-level cancellation,
task-local observability context, and the process-wide context pool.
"""

import gc
import pickle
import re
import threading
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro import RunConfig, RunRequest
from repro.errors import DeadlockError, LaunchError, RankFailedError
from repro.obs.core import Observability, current
from repro.resilience.faults import FaultEvent, FaultInjector, FaultPlan
from repro.simmpi.datatypes import ANY_SOURCE
from repro.simmpi import events
from repro.simmpi.launcher import run_spmd


def run(fn, n, **kw):
    kw.setdefault("real_timeout", 20.0)
    kw.setdefault("engine", "events")
    return run_spmd(fn, n, **kw)


class TestEngineSelection:
    """``run_spmd(engine=)`` is the only selector; nothing ambient is read."""

    def test_default_engine_is_events(self):
        assert run_spmd(lambda comm: comm.rank, 2).engine == "events"

    def test_env_vars_are_ignored(self, monkeypatch, tmp_path):
        def simsweep(cache_dir):
            result = repro.run(RunRequest(
                artifacts=("simsweep",), use_cache=False,
                config=RunConfig(cache_dir=str(tmp_path / cache_dir)),
            ))
            return pickle.dumps(result.artifact("simsweep"))

        for name in ("ENGINE", "CONTEXT", "STACK_KB", "POOL_MAX"):
            monkeypatch.delenv(f"REPRO_SIMMPI_{name}", raising=False)
        unset = simsweep("unset")
        monkeypatch.setenv("REPRO_SIMMPI_ENGINE", "threads")
        monkeypatch.setenv("REPRO_SIMMPI_CONTEXT", "greenlet")
        monkeypatch.setenv("REPRO_SIMMPI_STACK_KB", "64")
        monkeypatch.setenv("REPRO_SIMMPI_POOL_MAX", "1")
        assert run_spmd(lambda comm: comm.rank, 2).engine == "events"
        assert events.POOL_MAX == 4096
        assert simsweep("set") == unset

    def test_simmpi_reads_no_environment(self):
        pattern = re.compile(r"\bos\.environ\b|\bgetenv\b")
        sources = sorted(Path(events.__file__).parent.glob("*.py"))
        assert sources
        hits = [p.name for p in sources if pattern.search(p.read_text())]
        assert hits == []

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIMMPI_ENGINE", "threads")
        result = run_spmd(lambda comm: comm.rank, 2, engine="events")
        assert result.engine == "events"

    def test_bad_engine_flag(self):
        with pytest.raises(LaunchError, match="carrier-pigeon"):
            run_spmd(lambda comm: comm.rank, 2, engine="carrier-pigeon")


class TestSchedulingPolicy:
    """Regression tests for the documented (virtual time, rank) order."""

    def test_wildcard_receive_order_is_rank_order(self):
        # Rank 0 drains size-1 wildcard receives.  Senders stagger their
        # *virtual* delays in reverse rank order, but scheduling at
        # launch is (0.0, rank), so posts -- and therefore mailbox FIFO
        # order -- follow rank order, not virtual send time.
        def main(comm):
            if comm.rank == 0:
                return [
                    comm.recv_status(source=ANY_SOURCE)[1].source
                    for _ in range(comm.size - 1)
                ]
            comm.compute(1e-3 * (comm.size - comm.rank))
            comm.send(comm.rank, dest=0)
            return None

        expected = list(range(1, 8))
        for _ in range(3):
            assert run(main, 8).returns[0] == expected

    def test_woken_receiver_ordered_by_virtual_time(self):
        # After rank 1's send wakes rank 0, rank 0 re-enters the run
        # queue at its post-receive clock -- behind still-unstarted
        # ranks at time 0.  Rank 0's second receive therefore sees rank
        # 2's message already posted: deterministic, repeatable.
        def main(comm):
            if comm.rank == 0:
                first = comm.recv_status(source=ANY_SOURCE)[1].source
                second = comm.recv_status(source=ANY_SOURCE)[1].source
                return (first, second)
            comm.send(comm.rank, dest=0)
            return None

        results = {run(main, 3).returns[0] for _ in range(5)}
        assert results == {(1, 2)}

    def test_identical_traces_run_to_run(self):
        def main(comm):
            comm.compute(1e-4 * (comm.rank + 1), label="work")
            comm.allreduce(comm.rank)
            comm.barrier()
            return comm.time

        runs = [run(main, 5, trace=True) for _ in range(3)]
        baseline = runs[0].tracer.snapshot()
        for other in runs[1:]:
            assert other.tracer.snapshot() == baseline
            assert other.clocks == runs[0].clocks


class TestFailurePaths:
    def test_exact_deadlock_detection(self):
        def main(comm):
            comm.recv(source=(comm.rank + 1) % comm.size)

        with pytest.raises(DeadlockError):
            run(main, 3)

    def test_partial_deadlock_detected(self):
        # rank 0 waits on a message nobody sends; others finish fine
        def main(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=99)
            return comm.rank

        with pytest.raises(DeadlockError):
            run(main, 4)

    def test_rank_exception_propagates(self):
        def main(comm):
            if comm.rank == 2:
                raise ValueError("rank 2 exploded")
            comm.barrier()

        with pytest.raises(ValueError, match="rank 2 exploded"):
            run(main, 4)

    def test_fault_kill_is_scheduler_cancellation(self):
        plan = FaultPlan([FaultEvent(kind="rank_kill", rank=1, after_ops=2)])

        def main(comm):
            for _ in range(4):
                comm.allreduce(comm.rank)
            return comm.rank

        with pytest.raises(RankFailedError):
            run(main, 4, fault_injector=FaultInjector(plan))

    def test_failed_attempts_leave_nothing_for_the_cyclic_gc(self):
        """A failed launch's traceback holds frames whose ``self`` is the
        engine; the engine lets go of it, so the resilience artifact's
        failed attempts are freed as they end, not by a later gc pass."""
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            repro.run(artifacts=("resilience",), use_cache=False)
            gc.collect()
            kinds = Counter(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert (kinds["EventEngine"], kinds["frame"]) == (0, 0)

    def test_a_failed_threads_launch_leaves_nothing_for_the_cyclic_gc(self):
        """The threaded engine lets go of its errors the same way."""
        def main(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 fails")
            comm.barrier()

        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            with pytest.raises(ValueError, match="rank 1 fails"):
                run_spmd(main, 4, engine="threads")
            gc.collect()
            kinds = Counter(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert (kinds["Engine"], kinds["frame"]) == (0, 0)


class TestTaskLocalObservability:
    def test_ambient_view_is_per_rank(self):
        obs = Observability()

        def main(comm):
            view = obs.rank_view(comm)
            with view.span("step"):
                comm.barrier()  # other ranks run inside our span
                seen = current().rank
                with view.span("inner"):
                    comm.allreduce(comm.rank)
                    nested = current().rank
            after = current().enabled
            return (seen, nested, after)

        result = run(main, 4, observability=obs)
        # every rank saw *its own* view despite interleaved execution on
        # one OS thread, and the slot cleared when the span closed
        assert result.returns == [(r, r, False) for r in range(4)]
        obs.check_balanced()

    def test_span_trees_stay_per_rank(self):
        obs = Observability()

        def main(comm):
            view = obs.rank_view(comm)
            with view.span("outer"):
                comm.barrier()
                with view.span("inner"):
                    comm.barrier()

        run(main, 3, observability=obs)
        for rank in range(3):
            roots = obs.all_roots()[rank]
            assert [s.name for s in roots] == ["outer"]
            assert [s.name for s in roots[0].children] == ["inner"]
            assert all(s.rank == rank for s in roots + roots[0].children)


class TestContextPool:
    def test_stacks_are_reused_across_runs(self):
        def main(comm):
            comm.barrier()
            return comm.rank

        run(main, 8)
        parked_after_first = len(events._pool)
        assert parked_after_first >= 8
        assert events.POOL_MAX >= parked_after_first
        run(main, 8)
        parked_after_second = len(events._pool)
        # the second run drew from the pool instead of growing it
        assert parked_after_second <= parked_after_first

    def test_concurrent_pool_growth_restores_stack_size(self, monkeypatch):
        """Two launches growing the pool at once must not leak the 1 MiB
        stack reservation into the process-wide default.

        The patched ``Thread.start`` forces the losing interleaving of
        an unserialized set -> start -> restore: the launch that set
        first (and so holds the original value) waits for the second to
        set, restores first, and only then does the second restore --
        its saved "previous" value being the first launch's 1 MiB.
        """
        events._drain_pool()
        before = threading.stack_size()
        real_start = threading.Thread.start
        arrivals = []
        second_arrived = threading.Event()
        first_done = threading.Event()

        def start(thread):
            if thread.name == "simmpi-stack":
                arrivals.append(thread)
                if len(arrivals) == 1:
                    second_arrived.wait(timeout=0.5)
                else:
                    second_arrived.set()
                    first_done.wait(timeout=5.0)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        stacks = []

        def grow():
            stacks.append(events._pool_get())
            first_done.set()

        launches = [threading.Thread(target=grow) for _ in range(2)]
        for launch in launches:
            real_start(launch)
        for launch in launches:
            launch.join(timeout=10.0)
        assert not any(launch.is_alive() for launch in launches)
        for stack in stacks:
            assert events._pool_put(stack)
        assert len(arrivals) == 2
        assert threading.stack_size() == before
