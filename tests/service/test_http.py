"""The HTTP endpoint + BrokerService facade, including the PR's
acceptance scenario: 64 concurrent clients coalesce onto one
computation, every one of them receives bit-identical results, and an
over-quota tenant is refused with a typed AdmissionDenied while the
others complete."""

import json
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor
from urllib.request import Request, urlopen

import pytest

from repro.broker.api import RunRequest
from repro.errors import (
    AdmissionDenied,
    JobCancelledError,
    JobNotFoundError,
    ServiceError,
)
from repro.harness.config import RunConfig
from repro.obs.streaming import read_rows, stream_path
from repro.service.admission import AdmissionPolicy, TenantQuota
from repro.service.service import BrokerService, ServiceConfig
from repro.service.client import ServiceClient

REQ = RunRequest(artifacts=("fig4",), config=RunConfig(seed=11))


def echo_run(request):
    return ("ran", tuple(sorted(request.artifacts)),
            request.config.cache_token())


@pytest.fixture()
def service():
    with BrokerService(ServiceConfig(http=True), run_fn=echo_run) as svc:
        yield svc


@pytest.fixture()
def client(service):
    return ServiceClient(service.url)


class TestAcceptance:
    def test_64_clients_coalesce_onto_one_computation(self):
        """The headline guarantee, end to end over HTTP."""
        num_clients = 64
        computations = []
        release = threading.Event()
        barrier = threading.Barrier(num_clients)

        def gated_run(request):
            computations.append(request)
            release.wait(timeout=60.0)
            return echo_run(request)

        policy = AdmissionPolicy(
            default_quota=TenantQuota(rate_per_s=10_000.0, burst=10_000,
                                      max_concurrent_points=10_000),
            quotas={"greedy": TenantQuota(rate_per_s=10_000.0, burst=10_000,
                                          max_concurrent_points=1)},
            max_queue_depth=10_000,
        )
        with BrokerService(
            ServiceConfig(http=True, max_workers=2, policy=policy),
            run_fn=gated_run,
        ) as svc:
            url = svc.url

            def one_client(index):
                barrier.wait(timeout=30.0)
                return ServiceClient(url).submit(REQ, tenant=f"t{index}")

            with ThreadPoolExecutor(max_workers=num_clients) as pool:
                receipts = list(pool.map(one_client, range(num_clients)))

            # While the shared job is still running, the over-quota
            # tenant is refused — typed, with the guard's name — and
            # that denial affects nobody else.
            big = RunRequest(artifacts=("fig4", "fig5"),
                             config=RunConfig(seed=12))
            with pytest.raises(AdmissionDenied) as denied:
                ServiceClient(url).submit(big, tenant="greedy")
            assert denied.value.tenant == "greedy"
            assert denied.value.reason == "quota"

            release.set()

            def fetch(receipt):
                return pickle.dumps(
                    ServiceClient(url).result(receipt.job_id, timeout=60.0)
                )

            with ThreadPoolExecutor(max_workers=num_clients) as pool:
                blobs = list(pool.map(fetch, receipts))
            stats = svc.stats()

        assert len({r.job_id for r in receipts}) == 1
        assert sum(1 for r in receipts if not r.coalesced) == 1
        assert len(computations) == 1
        assert len(set(blobs)) == 1  # bit-identical RunResult for everyone
        assert stats["computations"] == 1
        assert stats["dedup_hit_rate"] >= 0.9
        assert stats["denials"] == {"greedy": {"quota": 1}}


class TestClientVerbs:
    def test_submit_status_result_round_trip(self, service, client):
        receipt = client.submit(REQ, tenant="alice")
        result = client.result(receipt.job_id, timeout=30.0)
        assert result == echo_run(REQ)
        status = client.status(receipt.job_id)
        assert status.state == "done"
        assert status.tenants == ("alice",)
        assert client.jobs()[0].job_id == receipt.job_id

    def test_status_accepts_id_prefix(self, service, client):
        receipt = client.submit(REQ)
        client.result(receipt.job_id, timeout=30.0)
        assert client.status(receipt.job_id[:12]).job_id == receipt.job_id

    def test_unknown_job_raises_typed_404(self, service, client):
        with pytest.raises(JobNotFoundError):
            client.status("feedface")

    def test_result_timeout_crosses_as_timeout_error(self):
        release = threading.Event()

        def gated(request):
            release.wait(timeout=30.0)
            return echo_run(request)

        with BrokerService(ServiceConfig(http=True), run_fn=gated) as svc:
            client = ServiceClient(svc.url)
            receipt = client.submit(REQ)
            with pytest.raises(TimeoutError):
                client.result(receipt.job_id, timeout=0.05)
            release.set()
            assert client.result(receipt.job_id, timeout=30.0) == echo_run(REQ)

    def test_cancel_round_trip(self):
        release = threading.Event()

        def gated(request):
            release.wait(timeout=30.0)
            return echo_run(request)

        other = RunRequest(artifacts=("fig5",), config=RunConfig(seed=11))
        with BrokerService(
            ServiceConfig(http=True, max_workers=1), run_fn=gated
        ) as svc:
            client = ServiceClient(svc.url)
            running = client.submit(REQ)
            waiting = client.submit(other)
            cancelled = client.cancel(waiting.job_id)
            assert cancelled.state == "cancelled"
            with pytest.raises(JobCancelledError):
                client.result(waiting.job_id, timeout=5.0)
            release.set()
            client.result(running.job_id, timeout=30.0)

    def test_stats_and_metrics_endpoints(self, service, client):
        receipt = client.submit(REQ, tenant="alice")
        client.result(receipt.job_id, timeout=30.0)
        stats = client.stats()
        assert stats["submitted"] == 1 and stats["done"] == 1
        with urlopen(f"{service.url}/api/v2/metrics") as r:
            text = r.read().decode()
        assert "service_submissions_total" in text

    def test_unreachable_service_is_a_service_error(self):
        client = ServiceClient("http://127.0.0.1:1", request_timeout_s=1.0)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.stats()


class TestCurlShape:
    def test_json_only_submit_works_without_pickle(self, service):
        """The documented curl path: plain JSON body, no request_pickle."""
        body = json.dumps({"artifacts": ["fig4"], "tenant": "curl"}).encode()
        req = Request(f"{service.url}/api/v2/submit", data=body,
                      method="POST",
                      headers={"Content-Type": "application/json"})
        with urlopen(req, timeout=30.0) as resp:
            doc = json.loads(resp.read().decode())
        assert resp.status == 202
        assert doc["tenant"] == "curl" and not doc["coalesced"]
        status = ServiceClient(service.url).status(doc["job_id"])
        assert status.artifacts == ("fig4",)

    @pytest.mark.parametrize("artifacts", [5, None])
    def test_malformed_artifacts_are_a_typed_400(self, service, artifacts):
        from urllib.error import HTTPError

        body = json.dumps({"artifacts": artifacts}).encode()
        req = Request(f"{service.url}/api/v2/submit", data=body,
                      method="POST",
                      headers={"Content-Type": "application/json"})
        with pytest.raises(HTTPError) as exc:
            urlopen(req, timeout=30.0)
        assert exc.value.code == 400
        doc = json.loads(exc.value.read().decode())
        assert doc["error"] == "ExperimentError"
        assert "must be names" in doc["message"]
        assert service.stats()["submitted"] == 0

    def test_unknown_route_is_404(self, service):
        from urllib.error import HTTPError

        with pytest.raises(HTTPError) as exc:
            urlopen(f"{service.url}/api/v2/nope", timeout=10.0)
        assert exc.value.code == 404


class TestRunViaV2:
    def test_repro_run_via_url(self, client):
        assert client.run(REQ, tenant="alice") == echo_run(REQ)

    def test_repro_run_via_service_object(self, service):
        assert service.run(REQ, tenant="alice") == echo_run(REQ)


class TestTelemetry:
    def test_lifecycle_streams_job_rows(self, tmp_path):
        """Every transition lands on stream.jsonl so `repro tail` works."""
        out = tmp_path / "svc"
        with BrokerService(
            ServiceConfig(http=True, out_dir=out), run_fn=echo_run
        ) as svc:
            client = ServiceClient(svc.url)
            receipt = client.submit(REQ, tenant="alice")
            client.result(receipt.job_id, timeout=30.0)
            client.submit(REQ, tenant="bob")
        rows = [r for r in read_rows(stream_path(out)) if r["kind"] == "job"]
        states = [r.get("state") for r in rows if r.get("event") == "state"]
        assert states == ["queued", "admitted", "running", "done"]
        events = [r.get("event") for r in rows]
        assert "coalesced" in events
