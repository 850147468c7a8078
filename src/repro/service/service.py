""":class:`BrokerService` — the broker as a long-lived, multi-tenant service.

A service accepts :class:`~repro.broker.api.RunRequest` submissions from
many tenants, derives each one's content address
(:func:`job_key`) and — when an identical computation
is already in flight or done — *coalesces* the new submission onto it:
the tenant becomes one more waiter on the same job, no admission charge,
no second computation.  This is the sweep cache's content addressing
lifted from "warm re-runs are free" to "concurrent duplicates are
shared".  Fresh work passes admission
(:mod:`repro.service.admission`) and runs on a pool of
``max_workers`` threads.

Callers on any thread share one ``threading.Condition``: it guards the
job table, the admission ledger, the counters, the metrics and the
telemetry stream.  A finished :class:`~repro.service.jobs.Job` keeps its
outcome — the compressed result blob, or the exception — and a waiter
blocks on the condition until its job has one.

Observability is first-class: every lifecycle transition emits a
``job`` row on the hub's telemetry stream (so ``python -m repro tail``
watches the service live), and the hub's metrics registry carries
per-tenant submission/coalesce/denial counters plus a queue-depth
gauge.

``ServiceConfig.http`` additionally binds the localhost
:mod:`repro.service.httpd` endpoint, which serves the same verbs over
HTTP to out-of-process tenants (``python -m repro submit``, curl, or a
:class:`~repro.service.client.ServiceClient`).

:meth:`BrokerService.run` and :meth:`ServiceClient.run
<repro.service.client.ServiceClient.run>` are the service's forms of
``repro.run(request)``: submit, wait, and return the same typed result.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import threading
import zlib
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.broker.cache import _PICKLE_PROTOCOL, code_fingerprint
from repro.broker.registry import resolve_artifacts
from repro.errors import JobCancelledError, JobNotFoundError, ServiceError
from repro.obs.core import Observability, ObsConfig
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.jobs import Job, SubmitReceipt

#: States of a job still waiting for a worker.
_WAITING = ("queued", "admitted")


def job_key(request) -> str:
    """The content address of one :class:`~repro.broker.api.RunRequest`.

    Derived from what the computation *is* — the sha256 of the resolved
    artifacts' point sets, the config's
    :meth:`~repro.harness.config.RunConfig.cache_token` and the code
    fingerprint, like the sweep cache's point keys — not how it runs, so
    identical submissions from different tenants coalesce onto one job.
    The execution-strategy knobs (``parallel``, ``use_cache``) are left
    out on purpose: they never change result values (pinned by the
    broker's bit-identity tests), so sharing across them is safe.
    """
    specs = resolve_artifacts(request.artifacts)
    point_sets = {
        spec.name: list(spec.points(request.config)) for spec in specs
    }
    blob = json.dumps(
        {"points": point_sets, "token": request.config.cache_token()},
        sort_keys=True,
    )
    digest = hashlib.sha256()
    for part in ("job", blob, code_fingerprint()):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def count_points(request) -> int:
    """Sweep points a request will evaluate — admission's unit of cost."""
    specs = resolve_artifacts(request.artifacts)
    return sum(len(spec.points(request.config)) for spec in specs)


def _default_run(request):
    """Execute one request through the broker (the production run_fn)."""
    from repro.broker.api import run

    return run(request)


def _drop_tracebacks(exc: BaseException) -> BaseException:
    """``exc`` with no traceback on it or on anything it chains to: it
    is kept as long as the job table is, and a traceback pins every
    frame — every local — of the run that raised."""
    chain, seen = [exc], set()
    while chain:
        link = chain.pop()
        if link is not None and id(link) not in seen:
            seen.add(id(link))
            link.__traceback__ = None
            chain += (link.__cause__, link.__context__)
    return exc


def _waiter_copy(exc: BaseException) -> BaseException:
    """A copy of a failed job's stored exception for one waiter to raise.

    Raising the stored one would hang that waiter's traceback, and so
    every local of its frames, on the job table.  The copy skips
    ``__init__`` (an exception's may not take its own ``args``).
    """
    copy = type(exc).__new__(type(exc), *exc.args)
    copy.__dict__.update(vars(exc))
    copy.__cause__, copy.__context__ = exc.__cause__, exc.__context__
    copy.__suppress_context__ = exc.__suppress_context__
    return copy


@dataclass(frozen=True)
class ServiceConfig:
    """How one :class:`BrokerService` is provisioned.

    ``out_dir`` hosts the observability stream (``stream.jsonl``) and
    exports, so ``python -m repro tail <out_dir>`` follows the service
    live; None keeps telemetry in memory.  ``max_workers`` bounds
    concurrently running jobs (each runs the whole broker request — the
    request's own ``parallel`` knob still fans its points out
    underneath).  ``http`` binds the localhost endpoint on
    ``host:port`` (port 0 picks a free one — read it back from
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
    would return.  ``run_fn`` is injectable so tests and benches can
    substitute a deterministic stand-in for a real broker run.  Usable
    as a context manager::

        with BrokerService(ServiceConfig(http=True)) as svc:
            result = svc.run(RunRequest(artifacts=("fig4",)))

    Of a ``done`` job's result the service retains one pickled blob,
    kept ``zlib``-compressed (so ``run_fn`` must return something
    picklable): :meth:`result` loads a copy per caller, the HTTP
    endpoint sends the decompressed blob.
    """

    def __init__(self, config: ServiceConfig | None = None, run_fn=None,
                 hub: Observability | None = None):
        self.config = config if config is not None else ServiceConfig()
        if hub is None:
            hub = Observability(ObsConfig(out_dir=self.config.out_dir))
        self.hub = hub
        self._run_fn = run_fn if run_fn is not None else _default_run
        self._admission = AdmissionController(self.config.policy)
        self._lock = threading.Condition()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}
        self._counts = dict.fromkeys(
            ("submitted", "coalesced", "denied", "computations", "done",
             "failed", "cancelled"), 0,
        )
        self._pool: ThreadPoolExecutor | None = None
        self._stream = None
        self._httpd = None
        self._http_thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._pool is not None

    @property
    def url(self) -> str | None:
        """The HTTP endpoint's base URL (None when HTTP is off)."""
        if self._httpd is None:
            return None
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "BrokerService":
        """Start the worker pool and (optionally) HTTP."""
        if self.running:
            return self
        if self.hub.config.enabled:
            self._stream = self.hub.attach_stream()
        self._pool = ThreadPoolExecutor(
            self.config.max_workers, thread_name_prefix="repro-service-worker"
        )
        if self.config.http:
            from repro.service.httpd import serve_http

            self._httpd, self._http_thread = serve_http(
                self, self.config.host, self.config.port
            )
        return self

    def stop(self) -> None:
        """Shut down: HTTP first, then the workers.

        The endpoint stops accepting and stops reading its kept
        connections: idle ones close at once, a request already read
        (a result wait) is answered once the workers have stopped.
        Jobs still waiting for a worker are cancelled (their waiters get
        a typed :class:`~repro.errors.JobCancelledError`) and running
        jobs finish, so no waiter is left blocked.  Telemetry is
        exported to ``out_dir`` on the way out so post-mortem
        ``tail``/metrics keep working.
        """
        if not self.running:
            return
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
            self._http_thread.join(timeout=5.0)
            self._http_thread = None
        with self._lock:
            pool, self._pool = self._pool, None
            for job in list(self._inflight.values()):
                if job.state in _WAITING:
                    self._settle(job, "cancelled")
        pool.shutdown(wait=True)
        if httpd is not None:
            httpd.join_connections(timeout=5.0)
        if self._stream is not None:
            self._stream.flush()
        if self.hub.config.enabled and self.hub.config.resolved_dir() is not None:
            self.hub.export()

    def __enter__(self) -> "BrokerService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- the verbs ----------------------------------------------------------

    def submit(self, request, tenant: str = "default") -> SubmitReceipt:
        """Submit one request; coalesce, admit, or deny.

        Identical in-flight submissions attach to the existing job and
        bypass admission entirely (they add a waiter, not compute); a
        submission identical to an already-``done`` job attaches the
        same way and can collect the result immediately.  Fresh work
        passes the admission gates and may raise a typed
        :class:`~repro.errors.AdmissionDenied`.
        """
        with self._lock:
            if self._pool is None:
                raise ServiceError("the service is not running (call start())")
            jid = job_key(request)
            self._counts["submitted"] += 1
            self._count("service_submissions_total", tenant=tenant)

            job = self._jobs.get(jid)
            if job is not None and job.state in ("queued", "admitted",
                                                 "running", "done"):
                job.attach(tenant)
                self._counts["coalesced"] += 1
                self._count("service_coalesced_total", tenant=tenant)
                self._emit_job(job, event="coalesced", tenant=tenant)
                return SubmitReceipt(job_id=jid, state=job.state,
                                     coalesced=True, tenant=tenant)

            # failed/cancelled (or unknown) content: a fresh run
            # supersedes any terminal record under the same id.
            points = count_points(request)
            try:
                self._admission.admit(tenant, points, queue_depth=self._depth())
            except Exception as exc:
                self._counts["denied"] += 1
                reason = getattr(exc, "reason", "error")
                self._count("service_denied_total", tenant=tenant, reason=reason)
                if self._stream is not None:
                    self._stream.emit("job", event="denied", tenant=tenant,
                                      reason=reason)
                raise

            # Admission passed: the job is created queued, immediately
            # promoted to admitted, and waits for a worker.
            job = Job(jid, request, tenant, points)
            self._jobs[jid] = job
            self._inflight[jid] = job
            self._emit_job(job, event="state", tenant=tenant)
            job.transition("admitted")
            self._emit_job(job, event="state", tenant=tenant)
            self._gauge_depth()
            # A crash of _work itself (a job's own failure is settled
            # inside it) is logged, not dropped with the pool's future.
            self._pool.submit(self._work, job).add_done_callback(Future.result)
            return SubmitReceipt(job_id=jid, state=job.state,
                                 coalesced=False, tenant=tenant)

    def status(self, job_id: str):
        """One job's :class:`~repro.service.jobs.JobStatus` snapshot
        (id or unambiguous prefix)."""
        with self._lock:
            return self._find(job_id).status()

    def jobs(self):
        """Snapshots of every job the service has seen, submission order."""
        with self._lock:
            return [job.status() for job in self._jobs.values()]

    def result(self, job_id: str, timeout: float | None = None):
        """Block for one job's typed :class:`~repro.broker.api.RunResult`.

        Every call unpickles its own copy: waiters never share a
        mutable result.  Raises as :meth:`result_blob` does.
        """
        return pickle.loads(self.result_blob(job_id, timeout=timeout))

    def result_blob(self, job_id: str, timeout: float | None = None) -> bytes:
        """Block for one job's pickled result — all a done job retains
        of it, decompressed from the stored form.

        Raises :class:`~repro.errors.JobCancelledError` if the job was
        cancelled, the job's own exception if it failed, and
        ``TimeoutError`` if ``timeout`` elapses first (the job keeps
        running — a result wait is an observer, not an owner).  A NaN or
        negative ``timeout`` is a :class:`~repro.errors.ServiceError`.
        """
        if timeout is not None and not timeout >= 0:
            raise ServiceError(
                f"result timeout must be a non-negative number of seconds, "
                f"got {timeout!r}"
            )
        with self._lock:
            job = self._find(job_id)
            if not self._lock.wait_for(lambda: job.outcome is not None, timeout):
                raise TimeoutError(
                    f"job {job.job_id[:12]} did not finish within "
                    f"{timeout:g} s"
                )
            outcome = job.outcome
        if isinstance(outcome, BaseException):
            raise _waiter_copy(outcome)
        return zlib.decompress(outcome)

    def cancel(self, job_id: str):
        """Cancel a job still waiting for a worker; returns its status.

        Only ``queued``/``admitted`` jobs can be cancelled — a running
        broker computation is not interruptible (and other coalesced
        tenants may be waiting on it).  Cancelling a terminal job is a
        no-op returning its status.
        """
        with self._lock:
            job = self._find(job_id)
            if job.state in _WAITING:
                self._settle(job, "cancelled")
            elif job.state == "running":
                raise ServiceError(
                    f"job {job.job_id[:12]} is running and cannot be cancelled"
                )
            return job.status()

    def stats(self) -> dict:
        """Service-level accounting: the CI/bench assertion surface."""
        with self._lock:
            submitted = self._counts["submitted"]
            coalesced = self._counts["coalesced"]
            return {
                **self._counts,
                "queue_depth": self._depth(),
                "inflight": len(self._inflight),
                "dedup_hit_rate": (coalesced / submitted) if submitted else 0.0,
                "denials": {t: dict(r)
                            for t, r in self._admission.denials.items()},
            }

    def run(self, request, tenant: str = "default",
            timeout: float | None = None):
        """Submit and wait: ``repro.run(request)``, run on this service."""
        receipt = self.submit(request, tenant=tenant)
        return self.result(receipt.job_id, timeout=timeout)

    # -- internals (every one called with the lock held) --------------------

    def _find(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is not None:
            return job
        matches = [j for jid, j in self._jobs.items()
                   if jid.startswith(job_id)] if job_id else []
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise JobNotFoundError(
                f"job id prefix {job_id!r} is ambiguous ({len(matches)} match)"
            )
        raise JobNotFoundError(f"no job {job_id!r} on this service")

    def _depth(self) -> int:
        return sum(1 for job in self._inflight.values()
                   if job.state in _WAITING)

    def _count(self, name: str, **labels) -> None:
        self.hub.metrics.counter(name).inc(1.0, rank=0, labels=labels)

    def _gauge_depth(self) -> None:
        self.hub.metrics.gauge("service_queue_depth").set(
            float(self._depth()), rank=0
        )

    def _emit_job(self, job: Job, event: str, tenant: str | None = None) -> None:
        if self._stream is None:
            return
        self._stream.emit(
            "job",
            event=event,
            job=job.job_id[:12],
            state=job.state,
            tenant=tenant if tenant is not None else job.owner,
            artifacts=list(job.artifacts),
            points=job.points,
            waiters=len(job.tenants),
        )
        self._stream.flush()

    def _settle(self, job: Job, state: str, outcome=None) -> None:
        """End a job in ``state`` with its outcome (a cancelled job's is
        a :class:`~repro.errors.JobCancelledError`), release what it
        held, and wake its waiters."""
        if state == "cancelled":
            outcome = JobCancelledError(f"job {job.job_id[:12]} was cancelled")
        elif state == "failed":
            job.error = f"{type(outcome).__name__}: {outcome}"
        job.outcome = outcome
        job.transition(state)
        self._counts[state] += 1
        del self._inflight[job.job_id]
        self._admission.release(job.owner, job.points)
        self._lock.notify_all()
        # Telemetry last: if it raises, the job is settled all the same.
        self._count(f"service_jobs_{state}_total", tenant=job.owner)
        self._gauge_depth()
        self._emit_job(job, event="state")

    def _work(self, job: Job) -> None:
        """One pool thread: run an admitted job, then settle it."""
        with self._lock:
            if job.state != "admitted":
                return  # cancelled while it waited
            job.transition("running")
            try:
                self._count("service_computations_total", tenant=job.owner)
                self._gauge_depth()
                self._emit_job(job, event="state")
            except Exception as exc:  # never leave a job running unrun
                self._settle(job, "failed", _drop_tracebacks(exc))
                return
            self._counts["computations"] += 1
            request = job.request
        try:
            blob = pickle.dumps(self._run_fn(request), protocol=_PICKLE_PROTOCOL)
            outcome, state = zlib.compress(blob), "done"
        except Exception as exc:
            outcome, state = _drop_tracebacks(exc), "failed"
        del request  # a finished job keeps none, once its waiters wake
        with self._lock:
            self._settle(job, state, outcome)


__all__ = ["ServiceConfig", "BrokerService"]
