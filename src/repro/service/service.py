""":class:`BrokerService` — the thread-hosted synchronous facade.

The :class:`~repro.service.queue.JobQueue` is pure asyncio and wants to
own its event loop; everything else in this codebase (the CLI, tests,
``repro.run``) is synchronous.  :class:`BrokerService` bridges the two:
it runs the queue's loop on a daemon thread and exposes blocking
``submit`` / ``status`` / ``result`` / ``cancel`` verbs that post
coroutines onto that loop with ``run_coroutine_threadsafe``.  One
process, no polling, and the service outlives any individual request —
the "persistent front end" ROADMAP item 2 asks for.

``ServiceConfig.http`` additionally binds the localhost
:mod:`repro.service.httpd` endpoint, which serves the same verbs over
HTTP to out-of-process tenants (``python -m repro submit``, curl, or a
:class:`~repro.service.client.ServiceClient`).

:meth:`BrokerService.run` and :meth:`ServiceClient.run
<repro.service.client.ServiceClient.run>` are the service's forms of
``repro.run(request)``: submit, wait, and return the same typed result.
"""

from __future__ import annotations

import asyncio
import pickle
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ServiceError
from repro.obs.core import Observability, ObsConfig
from repro.service.admission import AdmissionPolicy
from repro.service.queue import JobQueue


@dataclass(frozen=True)
class ServiceConfig:
    """How one :class:`BrokerService` is provisioned.

    ``out_dir`` hosts the observability stream (``stream.jsonl``) and
    exports, so ``python -m repro tail <out_dir>`` follows the service
    live; None keeps telemetry in memory.  ``max_workers`` bounds
    concurrently running jobs.  ``http`` binds the localhost endpoint
    on ``host:port`` (port 0 picks a free one — read it back from
    :attr:`BrokerService.url`).
    """

    out_dir: str | Path | None = None
    max_workers: int = 2
    policy: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    http: bool = False
    host: str = "127.0.0.1"
    port: int = 0

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ServiceError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )


class BrokerService:
    """The broker as a long-lived, multi-tenant service.

    Start it, submit :class:`~repro.broker.api.RunRequest`s from any
    thread (or over HTTP), and collect the same typed
    :class:`~repro.broker.api.RunResult` an in-process ``repro.run``
    would return.  ``run_fn`` is injectable for tests and benches.
    Usable as a context manager::

        with BrokerService(ServiceConfig(http=True)) as svc:
            result = svc.run(RunRequest(artifacts=("fig4",)))
    """

    def __init__(self, config: ServiceConfig | None = None, run_fn=None,
                 hub: Observability | None = None):
        self.config = config if config is not None else ServiceConfig()
        if hub is None:
            hub = Observability(ObsConfig(out_dir=self.config.out_dir))
        self.hub = hub
        self._run_fn = run_fn
        self.queue: JobQueue | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._httpd = None
        self._http_thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._loop is not None

    @property
    def url(self) -> str | None:
        """The HTTP endpoint's base URL (None when HTTP is off)."""
        if self._httpd is None:
            return None
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "BrokerService":
        """Boot the loop thread, the queue, and (optionally) HTTP."""
        if self.running:
            return self
        loop = asyncio.new_event_loop()
        self._loop = loop
        self._thread = threading.Thread(
            target=loop.run_forever, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        self.queue = JobQueue(
            policy=self.config.policy,
            max_workers=self.config.max_workers,
            hub=self.hub,
            run_fn=self._run_fn,
        )
        self._call(self.queue.start())
        if self.config.http:
            from repro.service.httpd import serve_http

            self._httpd, self._http_thread = serve_http(
                self, self.config.host, self.config.port
            )
        return self

    def stop(self, drain: bool = True) -> None:
        """Shut down: HTTP first, then the queue, then the loop.

        The endpoint stops accepting and stops reading its kept
        connections: idle ones close at once, a request already read
        (a result wait) is answered once the queue has stopped.  With
        ``drain`` (what the ``serve`` CLI does on SIGTERM) running jobs
        finish before the loop dies; queued-but-unstarted jobs are
        cancelled either way.  Telemetry is exported to ``out_dir`` on
        the way out so post-mortem ``tail``/metrics keep working.
        """
        if not self.running:
            return
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
            self._http_thread.join(timeout=5.0)
            self._http_thread = None
        self._call(self.queue.stop(drain=drain))
        if httpd is not None:
            httpd.join_connections(timeout=5.0)
        loop, self._loop = self._loop, None
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        loop.close()
        if self.hub.config.enabled and self.hub.config.resolved_dir() is not None:
            self.hub.export()

    def __enter__(self) -> "BrokerService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- the synchronous verbs ----------------------------------------------

    def _call(self, coro, timeout: float | None = None):
        """Run one coroutine on the service loop and wait for it."""
        if self._loop is None:
            raise ServiceError("the service is not running (call start())")
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    def submit(self, request, tenant: str = "default"):
        """Submit a request; returns a
        :class:`~repro.service.jobs.SubmitReceipt` (or raises a typed
        :class:`~repro.errors.AdmissionDenied`)."""
        return self._call(self.queue.submit(request, tenant=tenant))

    def status(self, job_id: str):
        """One job's :class:`~repro.service.jobs.JobStatus` snapshot."""
        return self._call(self.queue.status(job_id))

    def jobs(self):
        """Snapshots of every job the service has seen."""
        return self._call(self.queue.jobs())

    def result(self, job_id: str, timeout: float | None = None):
        """Block for one job's typed :class:`~repro.broker.api.RunResult`
        (the caller's own copy, unpickled on the caller's thread)."""
        return pickle.loads(self.result_blob(job_id, timeout=timeout))

    def result_blob(self, job_id: str, timeout: float | None = None) -> bytes:
        """Block for one job's pickled result, as the queue retains it."""
        return self._call(self.queue.result_blob(job_id, timeout=timeout))

    def cancel(self, job_id: str):
        """Cancel a not-yet-running job; returns its final status."""
        return self._call(self.queue.cancel(job_id))

    def stats(self) -> dict:
        """The queue's accounting dict (submissions, coalesces, depth)."""
        return self.queue.stats() if self.queue is not None else {}

    def run(self, request, tenant: str = "default",
            timeout: float | None = None):
        """Submit and wait: ``repro.run(request)``, run on this service."""
        receipt = self.submit(request, tenant=tenant)
        return self.result(receipt.job_id, timeout=timeout)


__all__ = ["ServiceConfig", "BrokerService"]
