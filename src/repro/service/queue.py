"""The asyncio job queue: admission in front, coalescing in the middle.

This is the heart of the broker service.  A :class:`JobQueue` accepts
:class:`~repro.broker.api.RunRequest` submissions from many tenants,
derives each one's content address (:func:`~repro.service.jobs.job_key`)
and — when an identical computation is already in flight — *coalesces*
the new submission onto it: the tenant becomes one more waiter on the
same future, no admission charge, no second computation.  This is the
sweep cache's content addressing lifted from "warm re-runs are free" to
"concurrent duplicates are shared".

Everything stateful lives on one event loop: submissions, transitions,
admission ledgers and the worker tasks that hand jobs to
``asyncio.to_thread``-hosted broker runs.  The loop is the single
writer, so no locks; callers on other threads go through
:class:`~repro.service.service.BrokerService`, which posts coroutines
onto the loop.

Observability is first-class: every lifecycle transition emits a
``job`` row on the hub's telemetry stream (so ``python -m repro tail``
watches the service live), and the hub's metrics registry carries
per-tenant submission/coalesce/denial counters plus a queue-depth
gauge.
"""

from __future__ import annotations

import asyncio
import pickle
import time
import zlib
from typing import Callable

from repro.broker.cache import _PICKLE_PROTOCOL
from repro.broker.registry import resolve_artifacts
from repro.errors import JobCancelledError, JobNotFoundError, ServiceError
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.jobs import Job, JobStatus, SubmitReceipt, job_key


def _default_run(request):
    """Execute one request through the broker (the production run_fn)."""
    from repro.broker.api import run

    return run(request)


def count_points(request) -> int:
    """Sweep points a request will evaluate — admission's unit of cost."""
    specs = resolve_artifacts(request.artifacts)
    return sum(len(spec.points(request.config)) for spec in specs)


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


class JobQueue:
    """Coalescing, admission-controlled front end to the broker.

    ``max_workers`` bounds concurrently *running* jobs (each runs the
    whole broker request — the request's own ``parallel`` knob still
    fans its points out underneath).  ``run_fn`` is injectable so tests
    and the bench can substitute a deterministic stand-in for a real
    broker run; ``clock`` feeds the admission controller's token
    buckets.  ``hub`` is the service-lifetime
    :class:`~repro.obs.core.Observability` that collects metrics and
    hosts the telemetry stream.

    Of a ``done`` job's result the queue retains one pickled blob, kept
    ``zlib``-compressed (so ``run_fn`` must return something picklable):
    :meth:`result` loads a copy per caller, the HTTP endpoint sends the
    decompressed blob.
    """

    def __init__(self, policy: AdmissionPolicy | None = None,
                 max_workers: int = 2, hub=None,
                 run_fn: Callable | None = None, clock=time.monotonic):
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        self.admission = AdmissionController(policy, clock=clock)
        self.max_workers = int(max_workers)
        self.hub = hub
        self.run_fn = run_fn if run_fn is not None else _default_run
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}
        self._futures: dict[str, asyncio.Future] = {}
        self._work: asyncio.Queue[str] = asyncio.Queue()
        self._workers: list[asyncio.Task] = []
        self._stream = None
        self._started = False
        self.counts = {
            "submitted": 0, "coalesced": 0, "denied": 0,
            "computations": 0, "done": 0, "failed": 0, "cancelled": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Spin up the worker tasks (idempotent)."""
        if self._started:
            return
        self._started = True
        if self.hub is not None and self.hub.config.enabled:
            self._stream = self.hub.attach_stream()
        self._workers = [
            asyncio.create_task(self._worker(i), name=f"service-worker-{i}")
            for i in range(self.max_workers)
        ]

    async def stop(self, drain: bool = True) -> None:
        """Shut the queue down.

        With ``drain`` (the default, what SIGTERM does) every admitted
        job finishes first; without it, running jobs are abandoned.
        Jobs still waiting for a worker are cancelled either way.
        """
        for job in list(self._inflight.values()):
            if job.state in ("queued", "admitted"):
                self._finish_cancelled(job)
        if drain:
            await self.join()
        for task in self._workers:
            task.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        self._started = False
        if self._stream is not None:
            self._stream.flush()

    async def join(self) -> None:
        """Wait until every in-flight job reaches a terminal state."""
        while True:
            pending = [
                self._futures[jid] for jid, job in self._inflight.items()
                if jid in self._futures
            ]
            if not pending:
                return
            await asyncio.wait(pending)

    # -- the public verbs ---------------------------------------------------

    async def submit(self, request, tenant: str = "default") -> SubmitReceipt:
        """Submit one request; coalesce, admit, or deny.

        Identical in-flight submissions attach to the existing job and
        bypass admission entirely (they add a waiter, not compute); a
        submission identical to an already-``done`` job attaches the
        same way and can collect the result immediately.  Fresh work
        passes the admission gates and may raise a typed
        :class:`~repro.errors.AdmissionDenied`.
        """
        if not self._started:
            raise ServiceError("JobQueue.submit before start()")
        jid = job_key(request)
        self.counts["submitted"] += 1
        self._count("service_submissions_total", tenant=tenant)

        job = self._jobs.get(jid)
        if job is not None and job.state in ("queued", "admitted", "running",
                                             "done"):
            job.attach(tenant)
            self.counts["coalesced"] += 1
            self._count("service_coalesced_total", tenant=tenant)
            self._emit_job(job, event="coalesced", tenant=tenant)
            return SubmitReceipt(job_id=jid, state=job.state,
                                 coalesced=True, tenant=tenant)

        # failed/cancelled (or unknown) content: a fresh run supersedes
        # any terminal record under the same id.
        points = count_points(request)
        try:
            self.admission.admit(tenant, points, queue_depth=self._depth())
        except Exception as exc:
            self.counts["denied"] += 1
            reason = getattr(exc, "reason", "error")
            self._count("service_denied_total", tenant=tenant, reason=reason)
            if self._stream is not None:
                self._stream.emit("job", event="denied", tenant=tenant,
                                  reason=reason)
            raise

        # Admission passed: the job is created queued, immediately
        # promoted to admitted, and waits for a worker slot.
        job = Job(jid, request, tenant, points)
        self._jobs[jid] = job
        self._inflight[jid] = job
        loop = asyncio.get_running_loop()
        self._futures[jid] = loop.create_future()
        self._emit_job(job, event="state", tenant=tenant)
        job.transition("admitted")
        self._emit_job(job, event="state", tenant=tenant)
        self._gauge_depth()
        await self._work.put(jid)
        return SubmitReceipt(job_id=jid, state=job.state,
                             coalesced=False, tenant=tenant)

    async def status(self, job_id: str) -> JobStatus:
        """A snapshot of one job (id or unambiguous prefix)."""
        return self._find(job_id).status()

    async def jobs(self) -> list[JobStatus]:
        """Snapshots of every job the queue has seen, submission order."""
        return [job.status() for job in self._jobs.values()]

    async def result(self, job_id: str, timeout: float | None = None):
        """Await one job's typed :class:`~repro.broker.api.RunResult`.

        Every call unpickles its own copy: waiters never share a
        mutable result.  Raises as :meth:`result_blob` does.
        """
        return pickle.loads(await self.result_blob(job_id, timeout))

    async def result_blob(self, job_id: str, timeout: float | None = None) -> bytes:
        """Await one job's pickled result — all a done job retains of it,
        decompressed from the stored form.

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
        job = self._find(job_id)
        future = self._futures.get(job.job_id)
        if future is None:
            raise ServiceError(f"job {job_id[:12]} has no result future")
        if timeout is None:
            packed = await asyncio.shield(future)
        else:
            try:
                packed = await asyncio.wait_for(asyncio.shield(future), timeout)
            except asyncio.TimeoutError:
                raise TimeoutError(
                    f"job {job.job_id[:12]} did not finish within "
                    f"{timeout:g} s"
                ) from None
        return zlib.decompress(packed)

    async def cancel(self, job_id: str) -> JobStatus:
        """Cancel a job still waiting for a worker.

        Only ``queued``/``admitted`` jobs can be cancelled — a running
        broker computation is not interruptible (and other coalesced
        tenants may be waiting on it).  Cancelling a terminal job is a
        no-op returning its status.
        """
        job = self._find(job_id)
        if job.state in ("queued", "admitted"):
            self._finish_cancelled(job)
        elif job.state == "running":
            raise ServiceError(
                f"job {job.job_id[:12]} is running and cannot be cancelled"
            )
        return job.status()

    def stats(self) -> dict:
        """Service-level accounting: the CI/bench assertion surface."""
        submitted = self.counts["submitted"]
        coalesced = self.counts["coalesced"]
        return {
            **self.counts,
            "queue_depth": self._depth(),
            "inflight": len(self._inflight),
            "dedup_hit_rate": (coalesced / submitted) if submitted else 0.0,
            "denials": {t: dict(r) for t, r in self.admission.denials.items()},
        }

    # -- internals ----------------------------------------------------------

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
                   if job.state in ("queued", "admitted"))

    def _count(self, name: str, **labels) -> None:
        if self.hub is not None:
            self.hub.metrics.counter(name).inc(1.0, rank=0, labels=labels)

    def _gauge_depth(self) -> None:
        if self.hub is not None:
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

    def _leave_inflight(self, job: Job) -> None:
        self._inflight.pop(job.job_id, None)
        self.admission.release(job.owner, job.points)
        self._gauge_depth()

    def _finish_cancelled(self, job: Job) -> None:
        job.transition("cancelled")
        self.counts["cancelled"] += 1
        self._count("service_jobs_cancelled_total", tenant=job.owner)
        self._leave_inflight(job)
        self._emit_job(job, event="state")
        future = self._futures.get(job.job_id)
        if future is not None and not future.done():
            future.set_exception(
                JobCancelledError(f"job {job.job_id[:12]} was cancelled")
            )

    async def _worker(self, index: int) -> None:
        """One worker task: pull a job id, run the broker, settle waiters."""
        while True:
            jid = await self._work.get()
            job = self._jobs.get(jid)
            if job is None or job.state != "admitted":
                continue  # cancelled (or superseded) while waiting
            job.transition("running")
            self.counts["computations"] += 1
            self._count("service_computations_total", tenant=job.owner)
            self._gauge_depth()
            self._emit_job(job, event="state")
            future = self._futures[jid]
            try:
                packed = await asyncio.to_thread(self._run_packed, job.request)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                job.error = f"{type(exc).__name__}: {exc}"
                job.transition("failed")
                self.counts["failed"] += 1
                self._count("service_jobs_failed_total", tenant=job.owner)
                self._leave_inflight(job)
                self._emit_job(job, event="state")
                if not future.done():
                    future.set_exception(_drop_tracebacks(exc))
            else:
                job.transition("done")
                self.counts["done"] += 1
                self._count("service_jobs_done_total", tenant=job.owner)
                self._leave_inflight(job)
                self._emit_job(job, event="state")
                if not future.done():
                    future.set_result(packed)

    def _run_packed(self, request) -> bytes:
        blob = pickle.dumps(self.run_fn(request), protocol=_PICKLE_PROTOCOL)
        return zlib.compress(blob)


__all__ = ["JobQueue", "count_points"]
