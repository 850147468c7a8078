"""Broker-as-a-service: a persistent asynchronous job layer.

The paper brokered one computation at a time onto heterogeneous
platforms; ROADMAP item 2 asks for the "heavy traffic from millions of
users" story — the same broker behind a *shared, persistent* front end.
This package provides it, stdlib-only:

* :mod:`repro.service.jobs` — content-derived job identity and the
  ``queued -> admitted -> running -> done/failed/cancelled`` record;
* :mod:`repro.service.admission` — per-tenant token buckets,
  concurrent-point quotas and queue-depth backpressure behind a typed
  :class:`~repro.errors.AdmissionDenied`;
* :mod:`repro.service.queue` — the asyncio :class:`JobQueue` that
  **coalesces** identical in-flight submissions onto one computation
  (cache-key reuse from :mod:`repro.broker.cache`) and streams state
  transitions through :mod:`repro.obs.streaming`;
* :mod:`repro.service.service` — :class:`BrokerService`, the
  thread-hosted synchronous facade the CLI and HTTP layers share;
* :mod:`repro.service.httpd` — the localhost ``http.server`` endpoint
  (``submit`` / ``status`` / ``result`` / ``cancel`` / ``metrics``);
* :mod:`repro.service.client` — :class:`ServiceClient`, which talks to
  that endpoint and returns the same typed
  :class:`~repro.broker.api.RunResult` an in-process run would.

``BrokerService.run(request, tenant=...)`` and
``ServiceClient(url).run(request, tenant=...)`` are ``repro.run(request)``
routed through a service, so identical requests from different tenants
share one computation.
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionPolicy,
    TenantQuota,
    TokenBucket,
)
from repro.service.client import ServiceClient
from repro.service.jobs import JobStatus, SubmitReceipt, job_key
from repro.service.queue import JobQueue
from repro.service.service import BrokerService, ServiceConfig

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "TenantQuota",
    "TokenBucket",
    "ServiceClient",
    "JobStatus",
    "SubmitReceipt",
    "job_key",
    "JobQueue",
    "BrokerService",
    "ServiceConfig",
]
