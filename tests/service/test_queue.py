"""The service's job queue: coalescing, lifecycle, cancel, stop, stats."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.broker.api import RunRequest
from repro.errors import (
    JobCancelledError,
    JobNotFoundError,
    ServiceError,
)
from repro.harness.config import RunConfig
from repro.service.service import (
    BrokerService,
    ServiceConfig,
    count_points,
    job_key,
)


def echo_run(request):
    """A deterministic, picklable stand-in for a real broker run."""
    return ("ran", tuple(sorted(request.artifacts)),
            request.config.cache_token())


def started(run_fn=echo_run, max_workers=2) -> BrokerService:
    return BrokerService(ServiceConfig(max_workers=max_workers),
                         run_fn=run_fn).start()


def gated(release):
    def run_fn(request):
        release.wait(timeout=30.0)
        return echo_run(request)

    return run_fn


def wait_running(svc, job_id):
    """Let the single worker pick the job up before acting."""
    deadline = time.monotonic() + 10.0
    while svc.status(job_id).state != "running":
        assert time.monotonic() < deadline, "the job never started"
        time.sleep(0.005)


REQ = RunRequest(artifacts=("fig4",), config=RunConfig(seed=3))
OTHER = RunRequest(artifacts=("fig5",), config=RunConfig(seed=3))


class TestIdentity:
    def test_same_request_same_key(self):
        assert job_key(REQ) == job_key(
            RunRequest(artifacts=("fig4",), config=RunConfig(seed=3))
        )

    def test_execution_strategy_is_excluded(self):
        """parallel/use_cache never change values, so they must not
        change identity — that is what makes cross-knob coalescing safe."""
        assert job_key(REQ) == job_key(
            RunRequest(artifacts=("fig4",), config=RunConfig(seed=3),
                       parallel=8, use_cache=False)
        )

    def test_config_values_are_included(self):
        assert job_key(REQ) != job_key(
            RunRequest(artifacts=("fig4",), config=RunConfig(seed=4))
        )

    def test_artifacts_are_included(self):
        assert job_key(REQ) != job_key(
            RunRequest(artifacts=("fig5",), config=RunConfig(seed=3))
        )

    def test_count_points_sums_specs(self):
        assert count_points(REQ) >= 1
        both = RunRequest(artifacts=("fig4", "fig5"), config=RunConfig(seed=3))
        assert count_points(both) > count_points(REQ)


class TestLifecycle:
    def test_submit_runs_and_settles(self):
        with started() as svc:
            receipt = svc.submit(REQ, tenant="alice")
            assert not receipt.coalesced
            result = svc.result(receipt.job_id)
            status = svc.status(receipt.job_id)
        assert result == echo_run(REQ)
        assert status.state == "done"
        assert [s for s, _ in status.transitions] == [
            "queued", "admitted", "running", "done",
        ]
        assert status.tenants == ("alice",)

    def test_identical_submissions_coalesce(self):
        with started() as svc:
            first = svc.submit(REQ, tenant="alice")
            second = svc.submit(REQ, tenant="bob")
            results = (svc.result(first.job_id), svc.result(second.job_id))
            status = svc.status(first.job_id)
            stats = svc.stats()
        assert first.job_id == second.job_id
        assert not first.coalesced and second.coalesced
        assert results[0] == results[1]
        assert status.tenants == ("alice", "bob")
        assert status.coalesced == 1
        assert stats["computations"] == 1
        assert stats["dedup_hit_rate"] == pytest.approx(0.5)

    def test_parallel_knob_still_coalesces(self):
        with started() as svc:
            first = svc.submit(REQ, tenant="alice")
            second = svc.submit(
                RunRequest(artifacts=("fig4",), config=RunConfig(seed=3),
                           parallel=8),
                tenant="bob",
            )
            svc.result(first.job_id)
        assert first.job_id == second.job_id and second.coalesced

    def test_coalesce_onto_done_job(self):
        """A submission identical to finished work collects immediately."""
        with started() as svc:
            first = svc.submit(REQ, tenant="alice")
            svc.result(first.job_id)
            late = svc.submit(REQ, tenant="carol")
            result = svc.result(late.job_id)
            stats = svc.stats()
        assert late.coalesced and late.state == "done"
        assert result == echo_run(REQ)
        assert stats["computations"] == 1

    def test_failed_job_reraises_then_is_superseded(self):
        calls = []

        def flaky(request):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient platform failure")
            return echo_run(request)

        with started(run_fn=flaky) as svc:
            first = svc.submit(REQ, tenant="alice")
            with pytest.raises(RuntimeError, match="transient"):
                svc.result(first.job_id)
            status = svc.status(first.job_id)
            assert status.state == "failed"
            assert "transient" in status.error
            # Same content again: a failed record does NOT coalesce —
            # the resubmission supersedes it with a fresh run.
            retry = svc.submit(REQ, tenant="alice")
            result = svc.result(retry.job_id)
        assert not retry.coalesced
        assert result == echo_run(REQ)
        assert len(calls) == 2

    def test_a_failing_start_settles_the_job(self, monkeypatch):
        """Bookkeeping that raises as a job starts fails the job: it
        never stays running with its points held."""
        with started() as svc:
            count = svc._count

            def broken(name, **labels):
                if name == "service_computations_total":
                    raise RuntimeError("metrics are down")
                count(name, **labels)

            monkeypatch.setattr(svc, "_count", broken)
            receipt = svc.submit(REQ, tenant="alice")
            with pytest.raises(RuntimeError, match="metrics are down"):
                svc.result(receipt.job_id, timeout=10.0)
            assert svc.status(receipt.job_id).state == "failed"
            assert svc._admission.inflight_points("alice") == 0
            assert svc.stats()["computations"] == 0


class TestCancel:
    def test_cancel_waiting_job(self):
        release = threading.Event()
        with started(run_fn=gated(release), max_workers=1) as svc:
            running = svc.submit(REQ, tenant="alice")
            waiting = svc.submit(OTHER, tenant="bob")
            wait_running(svc, running.job_id)
            cancelled = svc.cancel(waiting.job_id)
            assert cancelled.state == "cancelled"
            with pytest.raises(JobCancelledError):
                svc.result(waiting.job_id)
            release.set()
            svc.result(running.job_id)
            stats = svc.stats()
        assert stats["cancelled"] == 1
        assert stats["done"] == 1
        assert stats["computations"] == 1  # the cancelled job never ran

    def test_cancel_running_job_is_refused(self):
        release = threading.Event()
        with started(run_fn=gated(release), max_workers=1) as svc:
            receipt = svc.submit(REQ, tenant="alice")
            wait_running(svc, receipt.job_id)
            with pytest.raises(ServiceError, match="cannot be cancelled"):
                svc.cancel(receipt.job_id)
            release.set()
            svc.result(receipt.job_id)

    def test_cancel_terminal_job_is_a_noop(self):
        with started() as svc:
            receipt = svc.submit(REQ, tenant="alice")
            svc.result(receipt.job_id)
            status = svc.cancel(receipt.job_id)
        assert status.state == "done"


class TestLookupsAndMisuse:
    def test_prefix_lookup(self):
        with started() as svc:
            receipt = svc.submit(REQ, tenant="alice")
            svc.result(receipt.job_id)
            status = svc.status(receipt.job_id[:10])
        assert status.job_id == receipt.job_id

    def test_unknown_job_raises(self):
        with started() as svc:
            with pytest.raises(JobNotFoundError, match="no job"):
                svc.status("feedface")

    def test_submit_before_start_raises(self):
        svc = BrokerService(run_fn=echo_run)
        with pytest.raises(ServiceError, match="not running"):
            svc.submit(REQ)

    def test_result_timeout_is_an_observer_not_an_owner(self):
        release = threading.Event()
        with started(run_fn=gated(release), max_workers=1) as svc:
            receipt = svc.submit(REQ, tenant="alice")
            with pytest.raises(TimeoutError):
                svc.result(receipt.job_id, timeout=0.05)
            # The timed-out wait must not have killed the job.
            release.set()
            result = svc.result(receipt.job_id)
        assert result == echo_run(REQ)


class TestStop:
    def test_stop_cancels_waiting_jobs(self):
        release = threading.Event()
        svc = started(run_fn=gated(release), max_workers=1)
        running = svc.submit(REQ, tenant="alice")
        waiting = svc.submit(OTHER, tenant="bob")
        wait_running(svc, running.job_id)
        release.set()
        svc.stop()
        assert svc.status(waiting.job_id).state == "cancelled"
        assert svc.status(running.job_id).state == "done"

    def test_a_waiter_at_stop_gets_its_result(self):
        """A thread blocked in result() when stop() is called gets the
        running job's result, and one on a waiting job its typed error."""
        release = threading.Event()
        svc = started(run_fn=gated(release), max_workers=1)
        running = svc.submit(REQ, tenant="alice")
        waiting = svc.submit(OTHER, tenant="bob")
        wait_running(svc, running.job_id)
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = pool.submit(svc.result, running.job_id, 30.0)
            refused = pool.submit(svc.result, waiting.job_id, 30.0)
            time.sleep(0.05)  # both waits are blocked before stop()
            threading.Timer(0.1, release.set).start()
            svc.stop()
            assert got.result(timeout=5.0) == echo_run(REQ)
            with pytest.raises(JobCancelledError):
                refused.result(timeout=5.0)
        stats = svc.stats()
        assert not svc.running
        assert stats["inflight"] == 0 and stats["computations"] == 1


class TestConcurrency:
    def test_concurrent_submits_lose_no_update(self):
        """Eight submitting threads, four workers, a thread switch every
        microsecond: every submission is counted once, each distinct
        request is computed once, and every waiter gets its value."""
        requests = [RunRequest(artifacts=("fig4",), config=RunConfig(seed=s))
                    for s in range(6)]

        def submit_and_wait(svc, i):
            request = requests[i % len(requests)]
            return request, svc.run(request, tenant=f"t{i % 3}", timeout=30.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with started(max_workers=4) as svc, \
                    ThreadPoolExecutor(max_workers=8) as pool:
                outcomes = list(pool.map(lambda i: submit_and_wait(svc, i),
                                         range(96)))
                stats = svc.stats()
        finally:
            sys.setswitchinterval(interval)
        assert all(result == echo_run(request) for request, result in outcomes)
        assert stats["submitted"] == 96
        assert stats["computations"] == stats["done"] == len(requests)
        assert stats["coalesced"] == 96 - len(requests)
        assert stats["inflight"] == 0 and stats["queue_depth"] == 0
