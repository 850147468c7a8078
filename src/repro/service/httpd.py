"""The localhost HTTP endpoint: ``http.server``, zero new dependencies.

Exposes the :class:`~repro.service.service.BrokerService` verbs under
``/api/v2/`` so out-of-process tenants (``python -m repro submit``,
curl, CI) can share one service:

========  ==========================  =======================================
method    path                        body / response
========  ==========================  =======================================
POST      ``/api/v2/submit``          JSON ``{"artifacts": [...], "tenant",
                                      "parallel", "use_cache"}`` (or a
                                      ``request_pickle`` for a full typed
                                      :class:`~repro.broker.api.RunRequest`)
                                      → submit-receipt JSON
GET       ``/api/v2/status/<id>``     job-status JSON (id prefixes work)
GET       ``/api/v2/jobs``            every job's status JSON
GET       ``/api/v2/result/<id>``     ``{"state", "result_pickle"}`` — the
                                      pickled typed ``RunResult``;
                                      ``?timeout=S`` bounds the wait
POST      ``/api/v2/cancel/<id>``     final job-status JSON
GET       ``/api/v2/stats``           queue accounting JSON
GET       ``/api/v2/metrics``         Prometheus text exposition
========  ==========================  =======================================

Typed results cross the wire as base64 pickle inside JSON: every tenant
receives the *same* bytes for a coalesced job, preserving the library's
bit-identity guarantee over HTTP.  Pickle is only safe between a client
and a service it trusts, which is why the endpoint binds localhost by
default and this module is documented as a loopback transport, not an
internet face.

Typed errors map onto status codes (429 ``AdmissionDenied``, 404
``JobNotFoundError``, 409 ``JobCancelledError``, 408 result-wait
timeout, 400 other service misuse) with a JSON body carrying the error
type and message so :class:`~repro.service.client.ServiceClient` can
re-raise the original exception class.

Connections are persistent (HTTP/1.1), one server thread each: every
response path first reads exactly the body its request declared, and
:meth:`ServiceHTTPServer.server_close` ends every kept connection
(``docs/service.md``, "Persistent connections").
"""

from __future__ import annotations

import base64
import json
import pickle
import selectors
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import (
    AdmissionDenied,
    JobCancelledError,
    JobNotFoundError,
    ReproError,
    ServiceError,
)

#: Route prefix for every endpoint this server exposes.
API_PREFIX = "/api/v2"

#: A client hanging up mid-exchange: the quiet end of its connection.
_HANGUP = (BrokenPipeError, ConnectionResetError)


def _error_doc(exc: BaseException) -> dict:
    """The JSON error body a typed exception crosses the wire as."""
    doc = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, AdmissionDenied):
        doc["tenant"] = exc.tenant
        doc["reason"] = exc.reason
        doc["retry_after_s"] = exc.retry_after_s
    return doc


def _status_for(exc: BaseException) -> int:
    """The HTTP status code a typed exception maps onto."""
    if isinstance(exc, AdmissionDenied):
        return 429
    if isinstance(exc, JobNotFoundError):
        return 404
    if isinstance(exc, JobCancelledError):
        return 409
    if isinstance(exc, TimeoutError):
        return 408
    if isinstance(exc, (ServiceError, ReproError, ValueError, KeyError)):
        return 400
    return 500


class ServiceHandler(BaseHTTPRequestHandler):
    """One kept connection: route each request, call the service,
    serialise the answer."""

    #: Set by :func:`serve_http` on the handler class.
    service = None
    protocol_version = "HTTP/1.1"
    #: Headers and body go out as two writes; with Nagle on, the body
    #: waits for the client's delayed ACK of the headers (~40 ms a call).
    disable_nagle_algorithm = True

    #: ``(method, verb) -> (path arguments, handler name)``.
    ROUTES = {
        ("GET", "status"): (1, "_get_status"),
        ("GET", "jobs"): (0, "_get_jobs"),
        ("GET", "result"): (1, "_get_result"),
        ("GET", "stats"): (0, "_get_stats"),
        ("GET", "metrics"): (0, "_get_metrics"),
        ("POST", "submit"): (0, "_post_submit"),
        ("POST", "cancel"): (1, "_post_cancel"),
    }

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence per-request stderr logging (telemetry streams instead)."""

    # -- plumbing -----------------------------------------------------------

    def _send(self, body: bytes, content_type: str, status: int) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, doc: dict, status: int = 200) -> None:
        self._send(json.dumps(doc).encode(), "application/json", status)

    def _read_body(self) -> bytes:
        """Exactly the request's declared body, so the next request on
        the connection starts where this one ends."""
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0 or "Transfer-Encoding" in self.headers:
            raise ServiceError(
                f"a request body needs a non-negative Content-Length, "
                f"got {declared!r}"
            )
        return self.rfile.read(length) if length else b""

    def _read_json(self) -> dict:
        if not self._body:
            return {}
        doc = json.loads(self._body.decode())
        if not isinstance(doc, dict):
            raise ServiceError("request body must be a JSON object")
        return doc

    def _serve(self) -> None:
        """Read the body, then route ``/api/v2/<verb>/<args>``."""
        try:
            self._body = self._read_body()
        except ServiceError as exc:
            # The stream's framing is unknown now: answer, then hang up.
            self.close_connection = True
            self._send_json(_error_doc(exc), status=400)
            return
        url = urlparse(self.path)
        self._query = parse_qs(url.query)
        parts = [p for p in url.path.split("/") if p]
        route = None
        if len(parts) >= 3 and "/" + "/".join(parts[:2]) == API_PREFIX:
            route = self.ROUTES.get((self.command, parts[2]))
        if route is None or route[0] != len(parts) - 3:
            self._send_json({"error": "NotFound", "message": self.path}, 404)
            return
        try:
            getattr(self, route[1])(*parts[3:])
        except _HANGUP:
            raise
        except Exception as exc:  # typed errors become typed JSON
            self._send_json(_error_doc(exc), status=_status_for(exc))

    do_GET = do_POST = _serve

    # -- handlers -----------------------------------------------------------

    def _post_submit(self) -> None:
        from repro.broker.api import RunRequest

        doc = self._read_json()
        tenant = str(doc.get("tenant", "default"))
        if "request_pickle" in doc:
            request = pickle.loads(base64.b64decode(doc["request_pickle"]))
        else:
            artifacts = doc.get("artifacts", ("all",))
            request = RunRequest(
                artifacts=tuple(artifacts) if not isinstance(artifacts, str)
                else (artifacts,),
                parallel=int(doc.get("parallel", 0)),
                use_cache=bool(doc.get("use_cache", True)),
            )
        receipt = self.service.submit(request, tenant=tenant)
        self._send_json({
            "job_id": receipt.job_id,
            "state": receipt.state,
            "coalesced": receipt.coalesced,
            "tenant": receipt.tenant,
        }, status=202)

    def _get_status(self, job_id: str) -> None:
        self._send_json(self.service.status(job_id).as_dict())

    def _get_jobs(self) -> None:
        self._send_json({"jobs": [s.as_dict() for s in self.service.jobs()]})

    def _get_result(self, job_id: str) -> None:
        timeout = None
        if "timeout" in self._query:
            timeout = float(self._query["timeout"][0])
        blob = self.service.result_blob(job_id, timeout=timeout)
        status = self.service.status(job_id)
        self._send_json({
            "job_id": status.job_id,
            "state": status.state,
            "result_pickle": base64.b64encode(blob).decode(),
        })

    def _post_cancel(self, job_id: str) -> None:
        self._send_json(self.service.cancel(job_id).as_dict())

    def _get_stats(self) -> None:
        self._send_json(self.service.stats())

    def _get_metrics(self) -> None:
        from repro.obs.exporters import prometheus_text

        text = prometheus_text(self.service.hub.metrics)
        self._send(text.encode(), "text/plain; version=0.0.4", 200)


class ServiceHTTPServer(ThreadingHTTPServer):
    """A thread per kept connection, each tracked so :meth:`server_close`
    can end them; a client hanging up is the quiet end of its thread."""

    # The socketserver default listen backlog (5) resets connections the
    # moment a coalesce storm of clients connects at once; the service's
    # whole point is absorbing such bursts.
    request_queue_size = 128
    daemon_threads = True

    def __init__(self, *args, **kwargs):
        # Before binding: a failed bind calls server_close().
        self._connections: dict = {}  # accepted socket -> its thread
        self._connections_lock = threading.Lock()
        # shutdown() writes a byte to wake serve_forever's wait.
        self._wake_r, self._wake_w = socket.socketpair()
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        super().__init__(*args, **kwargs)

    def serve_forever(self) -> None:
        """Accept connections until :meth:`shutdown`, which wakes it at once.

        The base loop only notices a shutdown at its next 0.5 s poll;
        this one also waits on a socket that :meth:`shutdown` writes to.
        """
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_r, selectors.EVENT_READ)
                while not self._stopping.is_set():
                    ready = selector.select()
                    if not self._stopping.is_set() and any(
                        key.fileobj is self for key, _ in ready
                    ):
                        self._handle_request_noblock()
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned."""
        self._stopping.set()
        self._wake_w.send(b"\0")
        self._stopped.wait()

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name="repro-service-conn", daemon=True,
        )
        with self._connections_lock:
            self._connections = {
                r: t for r, t in self._connections.items() if t.is_alive()
            }
            self._connections[request] = thread
        thread.start()

    def handle_error(self, request, client_address) -> None:
        if not isinstance(sys.exc_info()[1], _HANGUP):
            super().handle_error(request, client_address)

    def server_close(self) -> None:
        """Stop listening, and stop reading every kept connection.

        An idle connection ends at once; one mid-request still sends its
        answer, then ends.  Call after :meth:`shutdown`, so no connection
        is added behind it.
        """
        super().server_close()
        self._wake_r.close()
        self._wake_w.close()
        with self._connections_lock:
            requests = list(self._connections)
        for request in requests:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:  # already closed
                pass

    def join_connections(self, timeout: float) -> None:
        """Wait (up to ``timeout`` each) for the connection threads."""
        with self._connections_lock:
            threads = list(self._connections.values())
        for thread in threads:
            thread.join(timeout)


def serve_http(service, host: str = "127.0.0.1", port: int = 0):
    """Bind the endpoint and serve it on a daemon thread.

    Returns ``(server, thread)``; the caller owns shutdown
    (``server.shutdown(); server.server_close()``, then
    ``server.join_connections(timeout)``).  ``port`` 0 binds an
    ephemeral port — read the real one from ``server.server_address``.
    """
    handler = type("BoundServiceHandler", (ServiceHandler,),
                   {"service": service})
    server = ServiceHTTPServer((host, port), handler)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return server, thread


__all__ = ["API_PREFIX", "ServiceHTTPServer", "ServiceHandler", "serve_http"]
