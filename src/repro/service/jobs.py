"""Job identity and lifecycle records for the broker service.

A job's identity is *content-derived*, exactly like the sweep cache's
point keys: the sha256 of the resolved artifact names, their point
sets, the value-relevant slice of the
:class:`~repro.harness.config.RunConfig`
(:meth:`~repro.harness.config.RunConfig.cache_token`) and the repo
code fingerprint.  Two tenants submitting the same computation thus
produce the *same* job id, which is what lets the queue coalesce them
onto one execution — and why execution-strategy knobs (``parallel``,
``use_cache``, ``replay``) are deliberately excluded: they
never change result values (pinned by the broker's bit-identity
tests), so sharing across them is safe.

The lifecycle is a small linear machine::

    queued -> admitted -> running -> done | failed
       \\------------------------------> cancelled

with every transition wall-stamped in :attr:`Job.transitions` and
mirrored as a ``job`` row on the service's telemetry stream.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

from repro.broker.cache import code_fingerprint
from repro.broker.registry import resolve_artifacts
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


def job_key(request) -> str:
    """The content address of one :class:`~repro.broker.api.RunRequest`.

    Derived from what the computation *is* — (artifact, point-set,
    config token, code fingerprint) — not how it runs, so identical
    submissions from different tenants (or with different ``parallel``
    fan-outs) coalesce onto one job.
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
    """A picklable, JSON-able snapshot of one job's public state."""

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

    @property
    def finished(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in ("done", "failed", "cancelled")

    def as_dict(self) -> dict:
        """The JSON shape the HTTP endpoint and ``--json`` CLIs emit."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "artifacts": list(self.artifacts),
            "points": self.points,
            "tenants": list(self.tenants),
            "coalesced": self.coalesced,
            "submitted_wall": self.submitted_wall,
            "started_wall": self.started_wall,
            "finished_wall": self.finished_wall,
            "error": self.error,
            "transitions": [[state, wall] for state, wall in self.transitions],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "JobStatus":
        """Rebuild a snapshot from :meth:`as_dict` output."""
        return cls(
            job_id=doc["job_id"],
            state=doc["state"],
            artifacts=tuple(doc["artifacts"]),
            points=int(doc["points"]),
            tenants=tuple(doc["tenants"]),
            coalesced=int(doc["coalesced"]),
            submitted_wall=float(doc["submitted_wall"]),
            started_wall=doc["started_wall"],
            finished_wall=doc["finished_wall"],
            error=doc["error"],
            transitions=tuple(
                (state, float(wall)) for state, wall in doc["transitions"]
            ),
        )


class Job:
    """One queued computation: request, waiters, and the state machine.

    Mutable and loop-confined — only the
    :class:`~repro.service.queue.JobQueue`'s event loop touches it;
    everyone else sees immutable :class:`JobStatus` snapshots.
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


__all__ = [
    "job_key",
    "SubmitReceipt",
    "JobStatus",
    "Job",
]
