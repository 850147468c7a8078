"""Unified observability: spans, metrics, exporters, analysis.

The package the rest of the library reports into:

* :mod:`repro.obs.spans` — per-rank hierarchical span trees;
* :mod:`repro.obs.metrics` — typed Counter/Gauge/Histogram registry;
* :mod:`repro.obs.core` — the :class:`~repro.obs.core.Observability`
  hub, rank views, and the context-local ambient
  :func:`~repro.obs.core.current`;
* :mod:`repro.obs.exporters` — Chrome ``trace_event`` JSON, JSONL dumps,
  Prometheus text exposition;
* :mod:`repro.obs.analysis` — paper-style phase statistics, the
  critical-path extractor, comm/compute overlap;
* :mod:`repro.obs.causal` — Lamport/vector clocks derived from the
  simmpi event log, with a happens-before checker over the event stream;
* :mod:`repro.obs.health` — Scalasca-style wait-state classification
  (late-sender / late-receiver / wait-at-collective) plus
  load-imbalance and NIC-saturation indices;
* :mod:`repro.obs.streaming` — the bounded-memory telemetry stream
  behind ``python -m repro tail``.

Nothing here times the library itself: performance is measured from
outside the package by ``benchmarks/perf`` (``BENCHMARK.json``).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.obs.causal": ("CausalTracker",),
    "repro.obs.core": ("Observability", "ObsConfig"),
    "repro.obs.health": ("run_health",),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
