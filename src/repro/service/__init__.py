"""Broker-as-a-service: a persistent, multi-tenant job layer.

The paper brokered one computation at a time onto heterogeneous
platforms; ROADMAP item 2 asks for the "heavy traffic from millions of
users" story — the same broker behind a *shared, persistent* front end.
This package provides it, stdlib-only:

* :mod:`repro.service.jobs` — content-derived job identity and the
  ``queued -> admitted -> running -> done/failed/cancelled`` record;
* :mod:`repro.service.admission` — per-tenant token buckets,
  concurrent-point quotas and queue-depth backpressure behind a typed
  :class:`~repro.errors.AdmissionDenied`;
* :mod:`repro.service.service` —
  :class:`~repro.service.service.BrokerService`, which **coalesces**
  identical in-flight submissions onto one computation (cache-key reuse
  from :mod:`repro.broker.cache`), runs fresh ones on a worker pool
  behind one lock, and streams state transitions through
  :mod:`repro.obs.streaming` — the service the CLI and HTTP layers
  share;
* :mod:`repro.service.httpd` — the localhost ``http.server`` endpoint
  (``submit`` / ``status`` / ``result`` / ``cancel`` / ``metrics``);
* :mod:`repro.service.client` —
  :class:`~repro.service.client.ServiceClient`, which talks to that
  endpoint and returns the same typed
  :class:`~repro.broker.api.RunResult` an in-process run would.

``BrokerService.run(request, tenant=...)`` and
``ServiceClient(url).run(request, tenant=...)`` are ``repro.run(request)``
routed through a service, so identical requests from different tenants
share one computation.
"""
