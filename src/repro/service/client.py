""":class:`ServiceClient` — the tenant side of the HTTP endpoint.

A thin, dependency-free (``urllib``) client for
:mod:`repro.service.httpd`.  It speaks the same typed vocabulary as the
in-process API: ``submit`` returns a
:class:`~repro.service.jobs.SubmitReceipt`, ``result`` returns the
pickled-through typed :class:`~repro.broker.api.RunResult`, and error
bodies are re-raised as the original exception classes
(:class:`~repro.errors.AdmissionDenied` with its ``reason`` and
``retry_after_s`` intact, :class:`~repro.errors.JobNotFoundError`, …),
so ``repro.run(request, via="http://127.0.0.1:8642")`` is
indistinguishable from a local run apart from who did the computing.

Only point a client at a service you trust — results cross the wire as
pickle, which is a loopback convenience, not an internet protocol (see
``docs/service.md``).
"""

from __future__ import annotations

import base64
import json
import pickle
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

from repro.errors import (
    AdmissionDenied,
    JobCancelledError,
    JobNotFoundError,
    ServiceError,
)
from repro.service.httpd import API_PREFIX
from repro.service.jobs import JobStatus, SubmitReceipt


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
    their own ``timeout`` on top).
    """

    def __init__(self, base_url: str, request_timeout_s: float = 600.0):
        self.base_url = base_url.rstrip("/")
        self.request_timeout_s = request_timeout_s

    # -- transport ----------------------------------------------------------

    def _call(self, method: str, path: str, body: dict | None = None,
              timeout: float | None = None):
        url = f"{self.base_url}{API_PREFIX}{path}"
        data = None if body is None else json.dumps(body).encode()
        req = Request(url, data=data, method=method,
                      headers={"Content-Type": "application/json"})
        deadline = timeout if timeout is not None else self.request_timeout_s
        try:
            with urlopen(req, timeout=deadline) as resp:
                payload = resp.read().decode()
        except HTTPError as exc:
            try:
                doc = json.loads(exc.read().decode())
            except (ValueError, OSError):
                raise ServiceError(
                    f"service returned HTTP {exc.code} for {path}"
                ) from exc
            _raise_typed(doc)
        except URLError as exc:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {exc.reason}"
            ) from exc
        return json.loads(payload)

    # -- verbs --------------------------------------------------------------

    def submit(self, request, tenant: str = "default") -> SubmitReceipt:
        """Submit a typed request; returns the service's receipt.

        The request crosses as pickle so every field (config, seeds,
        resilience knobs) survives exactly; the JSON-only form of the
        endpoint remains available to curl (see ``docs/api.md``).
        """
        doc = self._call("POST", "/submit", body={
            "tenant": tenant,
            "request_pickle":
                base64.b64encode(pickle.dumps(request)).decode(),
        })
        return SubmitReceipt(
            job_id=doc["job_id"], state=doc["state"],
            coalesced=bool(doc["coalesced"]), tenant=doc["tenant"],
        )

    def status(self, job_id: str) -> JobStatus:
        """One job's snapshot."""
        return JobStatus.from_dict(self._call("GET", f"/status/{job_id}"))

    def jobs(self) -> list[JobStatus]:
        """Every job the service has seen."""
        doc = self._call("GET", "/jobs")
        return [JobStatus.from_dict(d) for d in doc["jobs"]]

    def result(self, job_id: str, timeout: float | None = None):
        """Block for one job's typed :class:`~repro.broker.api.RunResult`."""
        path = f"/result/{job_id}"
        if timeout is not None:
            path += f"?timeout={timeout:g}"
        wire = timeout + 30.0 if timeout is not None else None
        doc = self._call("GET", path, timeout=wire)
        return pickle.loads(base64.b64decode(doc["result_pickle"]))

    def cancel(self, job_id: str) -> JobStatus:
        """Cancel a not-yet-running job."""
        return JobStatus.from_dict(self._call("POST", f"/cancel/{job_id}"))

    def stats(self) -> dict:
        """The service's accounting dict (submissions, coalesces, depth)."""
        return self._call("GET", "/stats")

    def metrics_text(self) -> str:
        """The service's Prometheus exposition, verbatim."""
        url = f"{self.base_url}{API_PREFIX}/metrics"
        try:
            with urlopen(url, timeout=self.request_timeout_s) as resp:
                return resp.read().decode()
        except URLError as exc:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {exc}"
            ) from exc

    def run(self, request, tenant: str = "default",
            timeout: float | None = None):
        """Submit and wait — the client side of ``repro.run(via=url)``."""
        receipt = self.submit(request, tenant=tenant)
        return self.result(receipt.job_id, timeout=timeout)


__all__ = ["ServiceClient"]
