""":class:`ServiceClient` — the tenant side of the HTTP endpoint.

A thin, dependency-free (``http.client``) client for
:mod:`repro.service.httpd`.  It speaks the same typed vocabulary as the
in-process API: ``submit`` returns a
:class:`~repro.service.jobs.SubmitReceipt`, ``result`` returns the
pickled-through typed :class:`~repro.broker.api.RunResult`, and error
bodies are re-raised as the original exception classes
(:class:`~repro.errors.AdmissionDenied` with its ``reason`` and
``retry_after_s`` intact, :class:`~repro.errors.JobNotFoundError`, …),
so ``ServiceClient("http://127.0.0.1:8642").run(request)`` is
indistinguishable from ``repro.run(request)`` apart from who did the
computing.

Every verb a thread calls travels over that thread's one persistent
HTTP/1.1 connection, so a client is safe to share across threads and a
closed loop of calls opens one TCP connection, not one per call.
:meth:`ServiceClient.close` (or leaving a ``with`` block) closes them all.

A tenant pays for HTTP, not for the simulator: ``import
repro.service.client`` loads 16 ``repro`` modules (the record codec,
the records it decodes and the observability config they carry), 182
modules in all on CPython 3.11, and no numpy, broker or simmpi engine
(``tests/test_import_boundary.py`` holds the 16).

Only point a client at a service you trust — results cross the wire as
pickle, which is a loopback convenience, not an internet protocol (see
``docs/service.md``).
"""

from __future__ import annotations

import base64
import json
import pickle
import threading
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from urllib.parse import urlsplit

from repro.errors import (
    AdmissionDenied,
    JobCancelledError,
    JobNotFoundError,
    ServiceError,
)
from repro.harness.config import from_json
from repro.service.httpd import API_PREFIX
from repro.service.jobs import JobStatus, SubmitReceipt

#: How a kept connection shows that the peer closed it before answering
#: (an idle close, a restart; ``RemoteDisconnected`` is a reset): the one
#: case a request is sent again.
_STALE = (ConnectionResetError, BrokenPipeError)

def _unpickle_blob(blob) -> object:
    """A result body's ``result_blob``: base64 of the pickled result."""
    return pickle.loads(base64.b64decode(blob, validate=True))


#: The field a route's success body wraps its answer in, and how the
#: client decodes it (every other route's body is a record ``from_json``
#: checks).
_ENVELOPES = (("/jobs", "jobs", None), ("/result/", "result_blob", _unpickle_blob))


def _json_object(payload: bytes) -> dict | None:
    """The JSON object a body holds, or None for anything else."""
    try:
        doc = json.loads(payload)
    except ValueError:  # not JSON, or not UTF-8
        return None
    return doc if isinstance(doc, dict) else None


def _raise_typed(doc: dict) -> None:
    """Re-raise a server error body as the exception class it names."""
    error = doc.get("error", "ServiceError")
    message = doc.get("message", "service request failed")
    if error == "AdmissionDenied":
        raise AdmissionDenied(
            message,
            tenant=doc.get("tenant", "?"),
            reason=doc.get("reason", "?"),
            retry_after_s=doc.get("retry_after_s"),
        )
    if error == "JobNotFoundError":
        raise JobNotFoundError(message)
    if error == "JobCancelledError":
        raise JobCancelledError(message)
    if error == "TimeoutError":
        raise TimeoutError(message)
    raise ServiceError(f"{error}: {message}")


class ServiceClient:
    """Blocking HTTP tenant of one :class:`~repro.service.service.BrokerService`.

    ``base_url`` is the service's ``http://host:port``;
    ``request_timeout_s`` bounds each HTTP round trip (result waits add
    their own ``timeout`` on top).  Each calling thread keeps one
    connection open until :meth:`close`; a kept connection the service
    closed before answering is reopened and the request sent once more.
    """

    def __init__(self, base_url: str, request_timeout_s: float = 600.0):
        self.base_url = base_url.rstrip("/")
        self.request_timeout_s = request_timeout_s
        url = urlsplit(self.base_url)
        self._connection_class = (
            HTTPSConnection if url.scheme == "https" else HTTPConnection
        )
        self._netloc = url.netloc
        self._root = url.path + API_PREFIX
        self._local = threading.local()
        self._conns_lock = threading.Lock()
        self._conns: list = []  # every thread's, for close()

    def close(self) -> None:
        """Close every connection this client opened, whichever thread
        opened it.  Call it with no request in flight; a later call
        reconnects (and a later ``close`` closes that too)."""
        with self._conns_lock:
            for conn in self._conns:
                conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ----------------------------------------------------------

    def _call(self, method: str, path: str, body: dict | None = None,
              timeout: float | None = None):
        """One exchange on this thread's connection: the JSON object the
        service sent, or the typed error it names.  Any other answer is a
        :class:`~repro.errors.ServiceError` naming the path and status."""
        data = None if body is None else json.dumps(body).encode()
        deadline = timeout if timeout is not None else self.request_timeout_s
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connection_class(self._netloc)
            with self._conns_lock:
                self._conns.append(conn)
        try:
            response = self._send(conn, method, self._root + path, data,
                                  deadline)
            payload = response.read()
        except BaseException as exc:
            # A half-read response must never meet the next request.
            conn.close()
            if (isinstance(exc, (OSError, HTTPException))
                    and not isinstance(exc, TimeoutError)):
                raise ServiceError(
                    f"cannot reach service at {self.base_url}: {exc}"
                ) from exc
            raise
        doc = _json_object(payload)
        if doc is None:
            raise ServiceError(f"service returned HTTP {response.status} for "
                               f"{path} with no JSON object")
        if response.status >= 400:
            _raise_typed(doc)
        for prefix, key, decode in _ENVELOPES:
            if not path.startswith(prefix):
                continue
            if key not in doc:
                raise ServiceError(f"service returned HTTP {response.status} "
                                   f"for {path} without {key!r}")
            if decode is not None:
                try:
                    doc[key] = decode(doc[key])
                except (TypeError, ValueError, EOFError,
                        pickle.UnpicklingError) as exc:
                    raise ServiceError(
                        f"service returned HTTP {response.status} for {path} "
                        f"with a malformed {key!r}: {exc}"
                    ) from exc
        return doc

    @staticmethod
    def _send(conn, method, target, data, deadline):
        """Send one request and read its response head.

        A *kept* socket the peer closed before any response byte came
        back is reopened and the request sent once more; a fresh one
        gets no second try.
        """
        reused = conn.sock is not None
        headers = {} if data is None else {"Content-Type": "application/json"}
        conn.timeout = deadline
        if reused:
            conn.sock.settimeout(deadline)
        try:
            conn.request(method, target, body=data, headers=headers)
            return conn.getresponse()
        except _STALE:
            if not reused:
                raise
        conn.close()
        conn.request(method, target, body=data, headers=headers)
        return conn.getresponse()

    # -- verbs --------------------------------------------------------------

    def submit(self, request, tenant: str = "default") -> SubmitReceipt:
        """Submit a typed request; returns the service's receipt.

        The request crosses as its JSON form
        (:meth:`~repro.broker.api.RunRequest.to_json`), the same body
        curl sends (see ``docs/api.md``), so every field (config, seeds,
        resilience knobs) survives exactly.
        """
        doc = self._call("POST", "/submit",
                         body={"tenant": tenant, **request.to_json()})
        return from_json(SubmitReceipt, doc, "submit receipt")

    def status(self, job_id: str) -> JobStatus:
        """One job's snapshot."""
        return from_json(JobStatus, self._call("GET", f"/status/{job_id}"),
                         "job status")

    def jobs(self) -> list[JobStatus]:
        """Every job the service has seen."""
        doc = self._call("GET", "/jobs")
        return [from_json(JobStatus, d, "job status") for d in doc["jobs"]]

    def result(self, job_id: str, timeout: float | None = None):
        """Block for one job's typed :class:`~repro.broker.api.RunResult`."""
        path = f"/result/{job_id}"
        if timeout is not None:
            path += f"?timeout={timeout:g}"
        wire = timeout + 30.0 if timeout is not None else None
        return self._call("GET", path, timeout=wire)["result_blob"]

    def cancel(self, job_id: str) -> JobStatus:
        """Cancel a not-yet-running job."""
        return from_json(JobStatus, self._call("POST", f"/cancel/{job_id}"),
                         "job status")

    def stats(self) -> dict:
        """The service's accounting dict (submissions, coalesces, depth)."""
        return self._call("GET", "/stats")

    def run(self, request, tenant: str = "default",
            timeout: float | None = None):
        """Submit and wait: ``repro.run(request)``, run on the service."""
        receipt = self.submit(request, tenant=tenant)
        return self.result(receipt.job_id, timeout=timeout)


__all__ = ["ServiceClient"]
