"""Job lifecycle records for the broker service.

A job is named by its content address
(:func:`~repro.service.service.job_key`), so every tenant that submits
the same computation holds the same :class:`Job`.

The lifecycle is a small linear machine::

    queued -> admitted -> running -> done | failed
       \\------------------------------> cancelled

with every transition wall-stamped in :attr:`Job.transitions` and
mirrored as a ``job`` row on the service's telemetry stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ServiceError

#: Legal transitions of the lifecycle machine.
_TRANSITIONS = {
    "queued": ("admitted", "cancelled"),
    "admitted": ("running", "cancelled"),
    "running": ("done", "failed"),
    "done": (),
    "failed": (),
    "cancelled": (),
}


@dataclass(frozen=True)
class SubmitReceipt:
    """What a tenant gets back from ``submit``: identity, not results."""

    job_id: str
    state: str
    #: True when this submission attached to an already in-flight job.
    coalesced: bool
    tenant: str


@dataclass(frozen=True)
class JobStatus:
    """A picklable snapshot of one job's public state; its JSON form
    (``to_json``) is the HTTP body and the ``--json`` CLI row."""

    job_id: str
    state: str
    artifacts: tuple[str, ...]
    points: int
    tenants: tuple[str, ...]
    #: Submissions beyond the first that attached to this job.
    coalesced: int
    submitted_wall: float
    started_wall: float | None
    finished_wall: float | None
    error: str | None
    transitions: tuple[tuple[str, float], ...]


class Job:
    """One queued computation: request, waiters, and the state machine.

    Mutable, and touched only with its
    :class:`~repro.service.service.BrokerService`'s lock held; everyone
    else sees immutable :class:`JobStatus` snapshots.
    """

    def __init__(self, job_id: str, request, tenant: str, points: int,
                 clock=time.time):
        self.job_id = job_id
        #: The request to run; dropped once the job is finished, when
        #: all the table needs of it is :attr:`artifacts`.
        self.request = request
        self.artifacts = tuple(request.artifacts)
        self.points = points
        self.tenants: list[str] = [tenant]
        self.state = "queued"
        self.error: str | None = None
        #: Set once the job is finished: a ``done`` job's compressed
        #: pickled result, or the exception a waiter raises (a failed
        #: job's own, a cancelled job's JobCancelledError).
        self.outcome: bytes | BaseException | None = None
        self._clock = clock
        now = clock()
        self.submitted_wall = now
        self.started_wall: float | None = None
        self.finished_wall: float | None = None
        self.transitions: list[tuple[str, float]] = [("queued", now)]

    @property
    def owner(self) -> str:
        """The tenant whose quota the job is charged against."""
        return self.tenants[0]

    @property
    def coalesced(self) -> int:
        """Submissions beyond the first that attached to this job."""
        return len(self.tenants) - 1

    def attach(self, tenant: str) -> None:
        """Record one more coalesced submission."""
        self.tenants.append(tenant)

    def transition(self, state: str) -> float:
        """Advance the machine; returns the transition's wall stamp."""
        allowed = _TRANSITIONS.get(self.state, ())
        if state not in allowed:
            raise ServiceError(
                f"job {self.job_id[:12]} cannot go {self.state!r} -> {state!r}"
            )
        now = self._clock()
        self.state = state
        self.transitions.append((state, now))
        if state == "running":
            self.started_wall = now
        if state in ("done", "failed", "cancelled"):
            self.finished_wall = now
            self.request = None
        return now

    def status(self) -> JobStatus:
        """An immutable snapshot safe to hand across threads."""
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            artifacts=self.artifacts,
            points=self.points,
            tenants=tuple(self.tenants),
            coalesced=self.coalesced,
            submitted_wall=self.submitted_wall,
            started_wall=self.started_wall,
            finished_wall=self.finished_wall,
            error=self.error,
            transitions=tuple(self.transitions),
        )


__all__ = ["SubmitReceipt", "JobStatus", "Job"]
