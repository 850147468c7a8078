"""The keep-alive transport: one connection per client thread, request
framing that survives a kept connection, the one-time reconnect, and a
stop() that ends every connection it served."""

import gc
import http.client
import json
import math
import socket
import struct
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.__main__ import main
from repro.broker.api import RunRequest
from repro.errors import ServiceError
from repro.harness.config import RunConfig
from repro.service.service import BrokerService, ServiceConfig
from repro.service.client import ServiceClient

REQ = RunRequest(artifacts=("fig4",), config=RunConfig(seed=11))


def echo_run(request):
    return ("ran", tuple(sorted(request.artifacts)),
            request.config.cache_token())


def count_accepts(service) -> list:
    """Record each connection the service's endpoint accepts from now on."""
    accepted = []
    server = service._httpd
    accept = server.get_request

    def counting():
        conn = accept()
        accepted.append(conn[1])
        return conn

    server.get_request = counting
    return accepted


def connection_threads() -> list:
    return [t for t in threading.enumerate()
            if t.name == "repro-service-conn" and t.is_alive()]


def gated_service(release):
    def gated(request):
        release.wait(timeout=30.0)
        return echo_run(request)

    return BrokerService(ServiceConfig(http=True), run_fn=gated)


@pytest.fixture()
def service():
    with BrokerService(ServiceConfig(http=True), run_fn=echo_run) as svc:
        yield svc


def host_port(service):
    return service._httpd.server_address[:2]


class TestOneConnectionPerThread:
    def test_fifty_verbs_use_one_connection(self, service):
        accepted = count_accepts(service)
        client = ServiceClient(service.url)
        for i in range(10):
            request = RunRequest(artifacts=("fig4",),
                                 config=RunConfig(seed=100 + i))
            receipt = client.submit(request, tenant="alice")
            assert client.result(receipt.job_id, timeout=30.0) == \
                echo_run(request)
            assert client.status(receipt.job_id).state == "done"
            assert client.stats()["submitted"] == i + 1
            assert client.result(receipt.job_id) == echo_run(request)
        assert len(accepted) == 1

    def test_shared_client_across_threads(self, service):
        accepted = count_accepts(service)
        client = ServiceClient(service.url)
        callers = set()

        def worker(index):
            callers.add(threading.get_ident())
            answers = []
            for call in range(25):
                request = RunRequest(artifacts=("fig4",),
                                     config=RunConfig(seed=index * 100 + call))
                if call % 2:
                    answers.append(client.stats()["submitted"] >= 1)
                else:
                    receipt = client.submit(request, tenant=f"t{index}")
                    answers.append(client.result(receipt.job_id, timeout=30.0)
                                   == echo_run(request))
            return answers

        with ThreadPoolExecutor(max_workers=8) as pool:
            answers = [a for rows in pool.map(worker, range(8)) for a in rows]
        assert len(answers) == 200 and all(answers)
        assert len(accepted) == len(callers)
        assert service.stats()["submitted"] == 8 * 13

    def test_two_hundred_calls_do_not_stall(self, service):
        """A delayed-ACK stall (Nagle on the server) costs ~40 ms a call."""
        client = ServiceClient(service.url)
        client.stats()
        start = time.perf_counter()
        for _ in range(200):
            client.stats()
        assert time.perf_counter() - start < 2.0


class TestClose:
    def test_close_closes_every_threads_connection(self, service):
        """No socket is left for the garbage collector to find open."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with ServiceClient(service.url) as client:
                worker = threading.Thread(target=client.stats)
                worker.start()
                worker.join()
                client.stats()
            del client, worker
            gc.collect()
        assert [w.message for w in caught
                if issubclass(w.category, ResourceWarning)] == []


class TestFraming:
    def test_body_to_unknown_route_is_drained(self, service):
        conn = http.client.HTTPConnection(*host_port(service), timeout=10.0)
        body = json.dumps({"artifacts": ["fig4"]}).encode()
        conn.request("POST", "/api/v2/nosuch", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 404
        assert json.loads(response.read())["error"] == "NotFound"
        conn.request("GET", "/api/v2/stats", body=body)
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["submitted"] == 0
        conn.close()

    def test_body_to_failing_verb_is_drained(self, service):
        conn = http.client.HTTPConnection(*host_port(service), timeout=10.0)
        conn.request("POST", "/api/v2/cancel/feedface", body=b'{"x": 1}')
        response = conn.getresponse()
        assert response.status == 404
        assert json.loads(response.read())["error"] == "JobNotFoundError"
        conn.request("GET", "/api/v2/jobs")
        response = conn.getresponse()
        assert response.status == 200 and json.loads(response.read()) == {
            "jobs": []}
        conn.close()

    def test_negative_content_length_is_refused(self, service):
        with socket.create_connection(host_port(service), timeout=2.0) as sock:
            sock.sendall(b"POST /api/v2/submit HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: -1\r\n\r\n")
            data = b""
            while chunk := sock.recv(4096):
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["message"]
        assert service.stats()["submitted"] == 0


class TestReconnect:
    def test_restart_on_the_same_port_reconnects_once(self):
        with BrokerService(ServiceConfig(http=True), run_fn=echo_run) as first:
            port = first._httpd.server_address[1]
            client = ServiceClient(first.url)
            assert client.stats()["submitted"] == 0
            client.submit(REQ)
        with BrokerService(ServiceConfig(http=True, port=port),
                           run_fn=echo_run) as second:
            accepted = count_accepts(second)
            assert client.stats()["submitted"] == 0  # the new service
            assert len(accepted) == 1
        # Dead port: the reconnect is refused, and that is not retried.
        with pytest.raises(ServiceError, match="cannot reach"):
            client.stats()


class TestStop:
    def test_an_idle_service_stops_at_once(self):
        """stop() wakes the accept loop; it does not wait out a poll."""
        svc = BrokerService(ServiceConfig(http=True), run_fn=echo_run).start()
        start = time.perf_counter()
        svc.stop()
        assert time.perf_counter() - start < 0.1
        assert not svc.running

    def test_stop_ends_an_idle_kept_connection(self):
        svc = BrokerService(ServiceConfig(http=True), run_fn=echo_run).start()
        client = ServiceClient(svc.url)
        before = set(connection_threads())
        client.stats()
        (served,) = set(connection_threads()) - before
        start = time.perf_counter()
        svc.stop()
        assert time.perf_counter() - start < 2.0
        assert not served.is_alive()
        with pytest.raises(ServiceError, match="cannot reach"):
            client.stats()

    def test_stop_answers_a_wait_already_read(self):
        """A result wait in flight at stop() gets its typed answer."""
        release = threading.Event()
        svc = gated_service(release).start()
        client = ServiceClient(svc.url)
        running = client.submit(REQ)
        before = set(connection_threads())
        with ThreadPoolExecutor(max_workers=1) as pool:
            waiting = pool.submit(client.result, running.job_id, 30.0)
            deadline = time.monotonic() + 10.0
            while (len(set(connection_threads()) - before) < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            time.sleep(0.2)  # the wait's request reaches its handler
            threading.Timer(0.2, release.set).start()
            svc.stop()
            assert waiting.result(timeout=30.0) == echo_run(REQ)
        assert not any(t.is_alive() for t in set(connection_threads()) - before)


class TestHangup:
    def test_client_hangup_prints_no_traceback(self, capfd):
        release = threading.Event()
        with gated_service(release) as svc:
            receipt = ServiceClient(svc.url).submit(REQ)
            sock = socket.create_connection(host_port(svc), timeout=5.0)
            sock.sendall(f"GET /api/v2/result/{receipt.job_id}?timeout=0.3 "
                         f"HTTP/1.1\r\nHost: x\r\n\r\n".encode())
            # Close with a reset, so the server's 408 meets a dead peer.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()
            deadline = time.monotonic() + 5.0
            while connection_threads() and time.monotonic() < deadline:
                time.sleep(0.05)
            release.set()
        err = capfd.readouterr().err
        assert "Traceback" not in err and "BrokenPipe" not in err, err

    def test_other_errors_are_still_reported(self, service, capfd):
        try:
            raise ValueError("not a hang-up")
        except ValueError:
            service._httpd.handle_error(None, ("127.0.0.1", 0))
        assert "not a hang-up" in capfd.readouterr().err


class TestResultTimeouts:
    def test_in_process_timeout_names_the_job(self):
        release = threading.Event()
        with gated_service(release) as svc:
            receipt = svc.submit(REQ)
            with pytest.raises(TimeoutError,
                               match=rf"{receipt.job_id[:12]}.*0\.1 s"):
                svc.result(receipt.job_id, timeout=0.1)
            release.set()

    def test_http_timeout_names_the_job(self):
        release = threading.Event()
        with gated_service(release) as svc:
            client = ServiceClient(svc.url)
            receipt = client.submit(REQ)
            with pytest.raises(TimeoutError,
                               match=rf"{receipt.job_id[:12]}.*0\.05 s"):
                client.result(receipt.job_id, timeout=0.05)
            release.set()

    def test_cli_wait_timeout_prints_the_reason(self, capsys):
        release = threading.Event()
        with gated_service(release) as svc:
            code = main(["submit", "fig4", "--url", svc.url, "--wait",
                         "--timeout", "0.2"])
            release.set()
        assert code == 1
        err = capsys.readouterr().err
        assert "did not finish within 0.2 s" in err, err

    @pytest.mark.parametrize("timeout", ["nan", "-1"])
    def test_bad_wire_timeout_is_a_400(self, timeout):
        release = threading.Event()
        with gated_service(release) as svc:
            receipt = ServiceClient(svc.url).submit(REQ)
            conn = http.client.HTTPConnection(*host_port(svc), timeout=10.0)
            start = time.perf_counter()
            conn.request("GET", f"/api/v2/result/{receipt.job_id}"
                                f"?timeout={timeout}")
            response = conn.getresponse()
            doc = json.loads(response.read())
            conn.close()
            release.set()
        assert response.status == 400
        assert doc["error"] == "ServiceError" and "timeout" in doc["message"]
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("timeout", [math.nan, -0.5])
    def test_bad_in_process_timeout_is_a_service_error(self, timeout):
        with BrokerService(run_fn=echo_run) as svc:
            receipt = svc.submit(REQ)
            with pytest.raises(ServiceError, match="non-negative"):
                svc.result(receipt.job_id, timeout=timeout)
