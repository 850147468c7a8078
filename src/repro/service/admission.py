"""Per-tenant admission control for the broker service.

Three guards stand between a submission and the worker pool, checked in
a fixed order so denials are deterministic and cheaply explainable:

1. **queue-depth backpressure** — a global bound on jobs sitting in the
   queue; when the service is drowning, *everyone* is told to retry,
   regardless of tenant standing;
2. **token-bucket rate limit** — each tenant refills
   ``rate_per_s`` tokens per second up to ``burst``; a submission costs
   one token, so short spikes ride on the burst allowance while
   sustained flooding is shaped to the configured rate;
3. **concurrent-point quota** — the sum of sweep points across a
   tenant's in-flight jobs may not exceed ``max_concurrent_points``;
   points are the service's unit of compute, so this is the fairness
   knob that keeps one tenant from monopolising the pool with a single
   enormous sweep.

All three deny with a typed :class:`~repro.errors.AdmissionDenied`
carrying the guard name and a retry hint.  Coalesced attachments to an
in-flight job bypass admission entirely — they add no compute, only a
waiter — which is exactly the multi-tenant sharing the service exists
to provide.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import AdmissionDenied, ServiceError


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's standing: refill rate, burst, and point allowance."""

    #: Sustained submissions per second the token bucket refills.
    rate_per_s: float = 50.0
    #: Bucket capacity — how many submissions may arrive back to back.
    burst: int = 100
    #: Max sweep points the tenant may have in flight at once.
    max_concurrent_points: int = 256

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0 or self.burst < 1:
            raise ServiceError(
                f"quota needs rate_per_s > 0 and burst >= 1, got "
                f"rate_per_s={self.rate_per_s}, burst={self.burst}"
            )
        if self.max_concurrent_points < 0:
            raise ServiceError(
                f"max_concurrent_points must be >= 0, got "
                f"{self.max_concurrent_points}"
            )


@dataclass(frozen=True)
class AdmissionPolicy:
    """The service-wide admission configuration.

    Every tenant gets ``default_quota``.  ``max_queue_depth`` bounds
    jobs waiting for a worker (running jobs do not count — they already
    hold a slot).
    """

    default_quota: TenantQuota = field(default_factory=TenantQuota)
    max_queue_depth: int = 64


class TokenBucket:
    """A classic token bucket on a monotonic clock.

    ``clock`` is injectable so tests (and the bench) can drive time
    deterministically instead of sleeping.
    """

    def __init__(self, rate_per_s: float, burst: int, clock=time.monotonic):
        if rate_per_s <= 0 or burst < 1:
            raise ServiceError(
                f"token bucket needs rate_per_s > 0 and burst >= 1, got "
                f"rate_per_s={rate_per_s}, burst={burst}"
            )
        self.rate_per_s = float(rate_per_s)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        self._tokens = min(float(self.burst), self._tokens + elapsed * self.rate_per_s)

    def try_acquire(self) -> bool:
        """Take one token if available; False (taking nothing) otherwise."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def seconds_until(self) -> float:
        """How long until one token will be available (0 when it is)."""
        self._refill()
        return max(0.0, (1.0 - self._tokens) / self.rate_per_s)


class AdmissionController:
    """Stateful admission gate: buckets and point ledgers per tenant.

    Not thread-safe by itself — the
    :class:`~repro.service.service.BrokerService` calls it only with its
    lock held.
    """

    def __init__(self, policy: AdmissionPolicy | None = None, clock=time.monotonic):
        self.policy = policy if policy is not None else AdmissionPolicy()
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self._inflight_points: dict[str, int] = {}
        #: tenant -> reason -> denial count (the obs layer mirrors this).
        self.denials: dict[str, dict[str, int]] = {}

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            quota = self.policy.default_quota
            bucket = TokenBucket(quota.rate_per_s, quota.burst, clock=self._clock)
            self._buckets[tenant] = bucket
        return bucket

    def _deny(self, tenant: str, reason: str, message: str,
              retry_after_s: float | None = None) -> None:
        per_tenant = self.denials.setdefault(tenant, {})
        per_tenant[reason] = per_tenant.get(reason, 0) + 1
        raise AdmissionDenied(message, tenant=tenant, reason=reason,
                              retry_after_s=retry_after_s)

    def inflight_points(self, tenant: str) -> int:
        """Sweep points the tenant currently holds in flight."""
        return self._inflight_points.get(tenant, 0)

    def admit(self, tenant: str, points: int, queue_depth: int) -> None:
        """Admit one submission of ``points`` sweep points, or deny typed.

        On success the tenant's point ledger is charged; the service must
        call :meth:`release` when the job leaves the in-flight set.
        """
        if points < 1:
            raise ServiceError(f"a job needs >= 1 point, got {points}")
        if queue_depth >= self.policy.max_queue_depth:
            self._deny(
                tenant, "backpressure",
                f"queue depth {queue_depth} is at the "
                f"{self.policy.max_queue_depth}-job limit; retry later",
            )
        quota = self.policy.default_quota
        bucket = self._bucket(tenant)
        if not bucket.try_acquire():
            self._deny(
                tenant, "rate",
                f"tenant {tenant!r} exceeded {quota.rate_per_s:g} "
                f"submissions/s (burst {quota.burst})",
                retry_after_s=bucket.seconds_until(),
            )
        held = self.inflight_points(tenant)
        if held + points > quota.max_concurrent_points:
            self._deny(
                tenant, "quota",
                f"tenant {tenant!r} holds {held} in-flight points; "
                f"{points} more would exceed the "
                f"{quota.max_concurrent_points}-point quota",
            )
        self._inflight_points[tenant] = held + points

    def release(self, tenant: str, points: int) -> None:
        """Return ``points`` to the tenant's allowance (job left the pool)."""
        held = self.inflight_points(tenant)
        remaining = held - points
        if remaining < 0:
            raise ServiceError(
                f"release of {points} points for tenant {tenant!r} "
                f"underflows its ledger ({held} held)"
            )
        if remaining:
            self._inflight_points[tenant] = remaining
        else:
            self._inflight_points.pop(tenant, None)


__all__ = [
    "TenantQuota",
    "AdmissionPolicy",
    "TokenBucket",
    "AdmissionController",
]
