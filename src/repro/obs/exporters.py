"""Trace and metrics exporters: Chrome trace_event, JSONL, Prometheus text.

Three sinks for one run's observability state:

* :func:`write_chrome_trace` — the ``chrome://tracing`` / Perfetto JSON
  format.  One lane (``tid``) per rank, spans as nested complete ("X")
  slices, point-to-point messages as flow events ("s" → "f") drawn as
  arrows between the sender's and receiver's lanes.
* :func:`write_spans_jsonl` / :func:`write_metrics_jsonl` — one JSON
  object per line, the grep-able archival form.
* :func:`prometheus_text` — the Prometheus text exposition format with a
  ``rank`` label, so a scrape of a run directory diffs cleanly.

Virtual times are seconds; Chrome wants microseconds (``ts``/``dur``).
Every file is published whole (:func:`repro.store.write_atomic`): a
reader racing an export never sees a prefix.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.spans import iter_spans
from repro.store import write_atomic

_US = 1e6  # seconds -> microseconds


def _span_events(obs) -> list[dict]:
    events = []
    for rank, roots in obs.all_roots().items():
        for span in iter_spans(roots):
            if not span.closed:
                continue
            event = {
                "name": span.name,
                "ph": "X",
                "cat": "span",
                "ts": span.t_start * _US,
                "dur": span.duration * _US,
                "pid": 0,
                "tid": rank,
            }
            if span.attrs:
                event["args"] = {k: _jsonable(v) for k, v in span.attrs.items()}
            events.append(event)
    return events


def _comm_events(obs) -> list[dict]:
    """Tracer records as thin slices plus send→recv flow arrows.

    A receive's arrow starts at the send its ``(sender, seq)`` identity
    names; collective-internal sends have no receive record and stay
    unpaired.
    """
    events: list[dict] = []
    records = obs.tracer.snapshot()
    sends = {r.message: r for r in records if r.kind == "send"}
    flow_id = 0
    for r in records:
        if r.kind not in ("send", "recv", "collective"):
            continue
        name = r.label or r.kind
        events.append({
            "name": f"{r.kind}:{name}" if r.label else r.kind,
            "ph": "X",
            "cat": "comm",
            "ts": r.t_start * _US,
            "dur": max(r.duration, 0.0) * _US,
            "pid": 0,
            "tid": r.rank,
            "args": {"nbytes": r.nbytes, "peer": r.peer, "tag": r.tag},
        })
        if r.kind == "recv" and r.seq >= 0:
            send = sends.get(r.message)
            if send is not None:
                flow_id += 1
                common = {"cat": "msg", "name": "message", "pid": 0, "id": flow_id}
                events.append({**common, "ph": "s", "ts": send.t_end * _US,
                               "tid": send.rank})
                events.append({**common, "ph": "f", "bp": "e",
                               "ts": r.t_end * _US, "tid": r.rank})
    return events


def chrome_trace_events(obs) -> list[dict]:
    """The full ``traceEvents`` list: metadata, span slices, comm events."""
    ranks = set(obs.all_roots())
    ranks.update(r.rank for r in obs.tracer.snapshot())
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": 0,
         "args": {"name": "repro simmpi run"}},
    ]
    for rank in sorted(ranks):
        events.append({"ph": "M", "name": "thread_name", "pid": 0, "tid": rank,
                       "args": {"name": f"rank {rank}"}})
        events.append({"ph": "M", "name": "thread_sort_index", "pid": 0,
                       "tid": rank, "args": {"sort_index": rank}})
    events.extend(_span_events(obs))
    events.extend(_comm_events(obs))
    return events


def write_chrome_trace(obs, path: str | Path) -> Path:
    """Write ``{"traceEvents": [...]}`` usable by chrome://tracing/Perfetto."""
    payload = {"traceEvents": chrome_trace_events(obs),
               "displayTimeUnit": "ms"}
    return write_atomic(path, json.dumps(payload, indent=1).encode())


def _jsonl(docs) -> bytes:
    """One JSON document per line."""
    return "".join(json.dumps(doc) + "\n" for doc in docs).encode()


def _jsonable(value):
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    return str(value)


def write_spans_jsonl(obs, path: str | Path) -> Path:
    """One span per line, flattened with parent ids (tree reconstructible)."""
    return write_atomic(path, _jsonl(
        span.to_dict()
        for roots in obs.all_roots().values() for span in iter_spans(roots)
    ))


def metrics_rows(registry: MetricsRegistry) -> list[dict]:
    """Per-rank, per-label-set metric rows (the JSONL payload)."""
    rows: list[dict] = []
    for inst in registry.instruments():
        for (rank, labels), _slot in sorted(inst.slots().items()):
            ld = dict(labels)
            if inst.kind == "counter":
                row = {"value": inst.value(rank=rank, labels=ld)}
            elif inst.kind == "gauge":
                value = inst.value(rank=rank, labels=ld)
                if math.isnan(value):
                    continue
                row = {"value": value}
            else:
                stats = inst.stats(rank=rank, labels=ld)
                if not stats["count"]:
                    continue
                row = {"count": stats["count"], "sum": stats["sum"],
                       "mean": stats["mean"]}
            rows.append({"name": inst.name, "kind": inst.kind,
                         "rank": rank, "labels": ld, **row})
    return rows


def write_metrics_jsonl(obs, path: str | Path) -> Path:
    """One metric sample per line: per-rank rows then the merged reduction."""
    merged = [
        {"name": sample.name, "kind": sample.kind, "rank": None,
         "labels": dict(sample.labels), "value": _jsonable(sample.value),
         "merged": True}
        for sample in obs.metrics.merged()
    ]
    return write_atomic(path, _jsonl(metrics_rows(obs.metrics) + merged))


# -- Prometheus text exposition ----------------------------------------------


_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name) -> str:
    """A legal Prometheus metric name: ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    name = _METRIC_NAME_RE.sub("_", str(name)) or "_"
    return "_" + name if name[0].isdigit() else name


def _label_name(name) -> str:
    """A legal Prometheus label name: ``[a-zA-Z_][a-zA-Z0-9_]*``."""
    name = _LABEL_NAME_RE.sub("_", str(name)) or "_"
    return "_" + name if name[0].isdigit() else name


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{_label_name(k)}="{_escape(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _escape(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value) -> str:
    # HELP text escapes only backslash and newline (the exposition-format
    # spec; double quotes stay literal outside label values).
    return str(value).replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus text exposition of every instrument, rank as a label."""
    lines: list[str] = []
    for inst in registry.instruments():
        name = _metric_name(inst.name)
        lines.append(f"# HELP {name} {_escape_help(inst.help or inst.name)}")
        lines.append(f"# TYPE {name} {inst.kind}")
        for labels in inst.label_sets():
            ld = dict(labels)
            for rank in inst.ranks():
                rl = {**ld, "rank": rank}
                if inst.kind == "counter":
                    lines.append(
                        f"{name}{_format_labels(rl)} "
                        f"{_format_value(inst.value(rank=rank, labels=ld))}"
                    )
                elif inst.kind == "gauge":
                    value = inst.value(rank=rank, labels=ld)
                    if math.isnan(value):
                        continue
                    lines.append(
                        f"{name}{_format_labels(rl)} {_format_value(value)}"
                    )
                else:
                    _histogram_lines(lines, inst, rank, ld, rl)
    return "\n".join(lines) + "\n"


def _histogram_lines(lines: list[str], inst: Histogram, rank: int,
                     labels: dict, rank_labels: dict) -> None:
    stats = inst.stats(rank=rank, labels=labels)
    if not stats["count"]:
        return
    name = _metric_name(inst.name)
    for bound, cumulative in inst.cumulative_buckets(rank=rank, labels=labels):
        le = "+Inf" if math.isinf(bound) else _format_value(bound)
        bucket_labels = {**rank_labels, "le": le}
        lines.append(
            f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
        )
    lines.append(
        f"{name}_sum{_format_labels(rank_labels)} "
        f"{_format_value(stats['sum'])}"
    )
    lines.append(f"{name}_count{_format_labels(rank_labels)} {stats['count']}")
