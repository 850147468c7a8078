"""What the service keeps of a finished job: one compressed pickled blob
of a done job's result (a copy per ``result()``), and no frames of a
failed one.

Counts and identities, not stopwatches: the job table lives as long as
the service does, so what each entry pins is the service's memory."""

import gc
import pathlib
import pickle
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from urllib.request import urlopen

import pytest

from repro.broker.api import RunRequest
from repro.broker.cache import _PICKLE_PROTOCOL
from repro.errors import ServiceError
from repro.harness.config import RunConfig
from repro.service.admission import AdmissionPolicy, TenantQuota
from repro.service.service import BrokerService, ServiceConfig
from repro.service.client import ServiceClient

REQ = RunRequest(artifacts=("fig4",), config=RunConfig(seed=5))


def table_run(request):
    return {"artifacts": list(request.artifacts), "rows": [[1.0, 2.0], [3.0]]}


class TestDoneJob:
    def test_each_result_call_gets_its_own_copy(self):
        with BrokerService(run_fn=table_run) as svc:
            first = svc.submit(REQ, tenant="alice")
            second = svc.submit(REQ, tenant="bob")
            with ThreadPoolExecutor(max_workers=2) as pool:
                mine, yours = pool.map(svc.result,
                                       (first.job_id, second.job_id))
            blob = svc.result_blob(first.job_id)
        assert mine == yours == table_run(REQ)
        assert mine is not yours and mine["rows"] is not yours["rows"]
        mine["rows"].append("scribble")  # one waiter's edit stays its own
        assert yours == table_run(REQ)
        assert blob == pickle.dumps(table_run(REQ), protocol=_PICKLE_PROTOCOL)

    def test_a_done_job_keeps_its_artifacts_not_its_request(self):
        request = RunRequest(artifacts=("fig4",), config=RunConfig(seed=6))
        alive = weakref.ref(request)

        with BrokerService(run_fn=table_run) as svc:
            job_id = svc.submit(request).job_id
            svc.result(job_id)
            del request
            gc.collect()
            assert alive() is None
            status = svc.status(job_id)
            assert status.state == "done" and status.artifacts == ("fig4",)

    def test_two_http_fetches_return_identical_bytes(self):
        with BrokerService(ServiceConfig(http=True), run_fn=table_run) as svc:
            job_id = svc.submit(REQ).job_id
            assert svc.result(job_id) == table_run(REQ)
            url = f"{svc.url}/api/v2/result/{job_id}"
            with urlopen(url, timeout=30.0) as one, urlopen(url, timeout=30.0) as two:
                assert one.read() == two.read()
            assert ServiceClient(svc.url).result(job_id) == table_run(REQ)

    def test_a_done_fig4_job_retains_under_7_kb(self, tmp_path):
        """Through the real run function.  Holding the ``RunResult``
        object tree measured ~20 KB per job here, the plain blob and the
        request 8.2 KB; the compressed blob is 2.5 KB."""
        jobs = 200
        # Retention is what this checks, not the rate limit: 220 fast
        # jobs would outrun the default quota's burst.
        roomy = TenantQuota(rate_per_s=1e6, burst=10**6, max_concurrent_points=10**6)
        policy = AdmissionPolicy(default_quota=roomy, max_queue_depth=10**6)

        def request(i):
            return RunRequest(
                artifacts=("fig4",),
                config=RunConfig(seed=9000 + i, cache_dir=str(tmp_path)),
            )

        with BrokerService(ServiceConfig(policy=policy)) as svc:
            for i in range(20):  # imports, lazy tables, allocator pools
                svc.run(request(i))
            gc.collect()
            tracemalloc.start()
            try:
                for i in range(20, 20 + jobs):
                    table = svc.run(request(i)).artifact("fig4")
                del table
                gc.collect()
                # Everything traced was allocated by these jobs.  pathlib
                # interns every path part, and the interpreter rebuilds
                # its interned-string table (one ~2 MB block, nothing
                # kept per job) whenever that churn fills it — on which
                # job depends on all the process interned before.
                kept = tracemalloc.take_snapshot().filter_traces(
                    [tracemalloc.Filter(False, pathlib.__file__)]
                )
                retained = sum(stat.size for stat in kept.statistics("filename"))
            finally:
                tracemalloc.stop()
            assert svc.stats()["done"] == 20 + jobs
        assert 0 < retained / jobs < 7 * 1024


class Ballast:
    """Weakref-able stand-in for a big local of a failing run."""

    def __init__(self):
        self.payload = bytearray(8 << 20)


class TestFailedJob:
    @pytest.fixture()
    def failing(self):
        alive = []

        def inner():
            ballast = Ballast()
            alive.append(weakref.ref(ballast))
            raise KeyError(f"{len(ballast.payload)} bytes in this frame")

        def run_fn(request):
            ballast = Ballast()
            alive.append(weakref.ref(ballast))
            try:
                inner()
            except KeyError as exc:  # the cause's traceback holds inner()'s frame
                raise ValueError("boom") from exc

        return run_fn, alive

    def test_in_process_failure_releases_the_run_frames(self, failing):
        run_fn, alive = failing
        with BrokerService(ServiceConfig(), run_fn=run_fn) as svc:
            job_id = svc.submit(REQ).job_id
            for _ in range(2):  # the stored exception is raised every time
                with pytest.raises(ValueError, match="boom") as raised:
                    svc.result(job_id, timeout=30.0)
                assert isinstance(raised.value.__cause__, KeyError)
                del raised
            gc.collect()
            assert [ref() for ref in alive] == [None, None]
            status = svc.status(job_id)
            assert status.state == "failed"
            assert status.error.startswith("ValueError: boom")

    def test_a_waiter_leaves_none_of_its_frames_on_the_job(self):
        """Each waiter raises its own copy of the stored exception, so
        the job table never holds a waiter's traceback."""
        def run_fn(request):
            raise ValueError("boom")

        with BrokerService(ServiceConfig(), run_fn=run_fn) as svc:
            job_id = svc.submit(REQ).job_id

            def waiter():
                ballast = Ballast()
                with pytest.raises(ValueError, match="boom"):
                    svc.result(job_id, timeout=30.0)
                return weakref.ref(ballast)

            alive = waiter()
            gc.collect()
            assert alive() is None
            assert svc.status(job_id).state == "failed"

    def test_http_failure_releases_the_run_frames(self, failing):
        run_fn, alive = failing
        with BrokerService(ServiceConfig(http=True), run_fn=run_fn) as svc:
            client = ServiceClient(svc.url)
            job_id = client.submit(REQ).job_id
            with pytest.raises((ValueError, ServiceError), match="boom"):
                client.result(job_id, timeout=30.0)
            gc.collect()
            assert [ref() for ref in alive] == [None, None]
            assert client.status(job_id).error.startswith("ValueError: boom")
