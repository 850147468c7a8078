"""Unified observability: spans, metrics, exporters, analysis.

The package the rest of the library reports into:

* :mod:`repro.obs.spans` — per-rank hierarchical span trees;
* :mod:`repro.obs.metrics` — typed Counter/Gauge/Histogram registry;
* :mod:`repro.obs.core` — the :class:`Observability` hub, rank views,
  and the thread-local ambient :func:`current`;
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

from repro.obs.causal import CausalReport, CausalTracker, CausalViolation
from repro.obs.core import (
    NULL_RANK_OBS,
    Observability,
    ObsConfig,
    RankObs,
    current,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
)
from repro.obs.health import (
    RankHealth,
    RunHealthReport,
    merge_reports,
    run_health,
)
from repro.obs.spans import Span, SpanStack, iter_spans, spans_named
from repro.obs.streaming import StreamingSink, read_rows

__all__ = [
    "CausalReport",
    "CausalTracker",
    "CausalViolation",
    "RankHealth",
    "RunHealthReport",
    "merge_reports",
    "run_health",
    "StreamingSink",
    "read_rows",
    "NULL_RANK_OBS",
    "Observability",
    "ObsConfig",
    "RankObs",
    "current",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "exponential_buckets",
    "Span",
    "SpanStack",
    "iter_spans",
    "spans_named",
]
