"""The observability hub: configuration, per-rank views, ambient context.

One :class:`Observability` object accompanies one run (an SPMD launch, a
sequential solve, or a whole experiment).  It owns

* a per-rank :class:`~repro.obs.spans.SpanStack` forest,
* a :class:`~repro.obs.metrics.MetricsRegistry`,
* a :class:`~repro.simmpi.tracing.Tracer` whose event log every
  observed launch appends to, and whose records feed the span layer's
  exporters and analyses (the comm events are *not* duplicated into
  spans — the log remains the single source of message truth, and
  :meth:`Observability.absorb_log` folds each launch's events into the
  communication counters).

Instrumented application code asks the hub for a :class:`RankObs` bound
to a rank and a clock (``obs.rank_view(comm)`` inside an SPMD body,
``obs.wall_view()`` for sequential code).  Opening a span *activates*
the view in the ambient slot, so library layers (assembly kernels,
Krylov loops, preconditioners) can attach child spans through the
ambient :func:`current` without threading an argument through every
signature.  The slot is *task-local*: under the event-driven engine
every rank is a cooperative task on one OS thread, so the active view
lives in the current :class:`~repro.simmpi.events.Task`'s ``locals``
dict; outside a task (the threaded engine, sequential code) it falls
back to a plain thread-local.  Either way the ambient context is
per-rank by construction.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, SpanStack
from repro.simmpi.events import current_task
from repro.simmpi.tracing import LogWindow, Tracer, trace_records
from repro.store import write_atomic

_tls = threading.local()

_AMBIENT_KEY = "obs_active"


def _get_ambient():
    """The raw ambient slot: task-local when a rank task is running."""
    task = current_task()
    if task is not None:
        return task.locals.get(_AMBIENT_KEY)
    return getattr(_tls, "active", None)


def _set_ambient(view) -> None:
    """Store (or with None, clear) the ambient slot for this task/thread."""
    task = current_task()
    if task is not None:
        if view is None:
            task.locals.pop(_AMBIENT_KEY, None)
        else:
            task.locals[_AMBIENT_KEY] = view
    elif view is None:
        if hasattr(_tls, "active"):
            del _tls.active
    else:
        _tls.active = view


def current() -> "RankObs":
    """The rank view active on this task/thread (a no-op view when none is)."""
    view = _get_ambient()
    return view if view is not None else NULL_RANK_OBS


@dataclass(frozen=True)
class ObsConfig:
    """What to collect and where to put it.

    ``out_dir`` of ``None`` means "collect in memory": nothing is
    streamed and :meth:`Observability.export` raises.
    """

    enabled: bool = True
    out_dir: str | Path | None = None
    prefix: str = "obs"
    discard: int = 5  # warm-up iterations the phase statistics drop

    def resolved_dir(self) -> Path | None:
        """The output directory as a Path (created lazily by export)."""
        return None if self.out_dir is None else Path(self.out_dir)


class RankObs:
    """One rank's handle into the hub: spans + metrics, clock-bound."""

    __slots__ = ("hub", "rank", "now", "_stack")

    def __init__(self, hub: "Observability", rank: int, now):
        self.hub = hub
        self.rank = rank
        self.now = now
        self._stack = hub._stack_for(rank)

    @property
    def enabled(self) -> bool:
        """Always true for a real view (the null view overrides)."""
        return True

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a nested span; activates this view in the ambient slot."""
        prev = _get_ambient()
        _set_ambient(self)
        span = self._stack.open(name, self.now(), attrs)
        try:
            yield span
        finally:
            self._stack.close(self.now())
            _set_ambient(prev)

    # -- metrics shortcuts (rank-stamped) ---------------------------------

    def count(self, name: str, value: float = 1.0, **labels) -> None:
        """Increment a counter slot owned by this rank."""
        self.hub.metrics.counter(name).inc(value, rank=self.rank, labels=labels)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record a histogram observation owned by this rank."""
        self.hub.metrics.histogram(name).observe(value, rank=self.rank, labels=labels)

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge slot owned by this rank."""
        self.hub.metrics.gauge(name).set(value, rank=self.rank, labels=labels)


class _NullRankObs(RankObs):
    """The do-nothing view: one boolean test per instrumented call site."""

    __slots__ = ()

    def __init__(self):  # no hub, no stack
        pass

    @property
    def enabled(self) -> bool:
        return False

    @contextmanager
    def span(self, name: str, **attrs):
        yield None

    def count(self, name, value=1.0, **labels):
        pass

    def observe(self, name, value, **labels):
        pass

    def gauge(self, name, value, **labels):
        pass


NULL_RANK_OBS = _NullRankObs()


class Observability:
    """Spans + metrics + trace for one run; see module docstring."""

    def __init__(self, config: ObsConfig | None = None):
        self.config = config if config is not None else ObsConfig()
        self.metrics = MetricsRegistry(enabled=self.config.enabled)
        self.tracer = Tracer(enabled=self.config.enabled)
        self._stacks: dict[int, SpanStack] = {}
        self._lock = threading.Lock()
        #: The run's :class:`~repro.obs.causal.CausalTracker`, attached
        #: by :func:`~repro.simmpi.launcher.run_spmd` when launched with
        #: ``causal=`` (None otherwise).
        self.causal = None
        #: A :class:`~repro.obs.streaming.StreamingSink` when a live
        #: telemetry stream is attached (the sweep engine does this).
        self.stream = None
        #: Health dicts absorbed from worker telemetry payloads.
        self._point_healths: list[dict] = []

    # -- span storage -------------------------------------------------------

    def _stack_for(self, rank: int) -> SpanStack:
        stack = self._stacks.get(rank)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(rank, SpanStack(rank))
        return stack

    def all_roots(self) -> dict[int, list[Span]]:
        """rank -> root spans, for every rank that opened one."""
        with self._lock:
            return {rank: list(stack.roots) for rank, stack in sorted(self._stacks.items())}

    def check_balanced(self) -> None:
        """Raise if any rank left a span open."""
        with self._lock:
            stacks = list(self._stacks.values())
        for stack in stacks:
            stack.check_balanced()

    # -- views -------------------------------------------------------------

    def rank_view(self, comm) -> RankObs:
        """A view bound to a simmpi communicator's rank and virtual clock."""
        if not self.config.enabled:
            return NULL_RANK_OBS
        return RankObs(self, comm.rank, lambda: comm.time)

    def wall_view(self, rank: int = 0, now=None) -> RankObs:
        """A view on the wall clock (sequential solvers, harness sweeps)."""
        if not self.config.enabled:
            return NULL_RANK_OBS
        return RankObs(self, rank, now if now is not None else time.perf_counter)

    # -- communication counters ---------------------------------------------

    def absorb_log(self, window: LogWindow) -> None:
        """Fold one launch's log window into the communication counters.

        ``simmpi_events_total`` (by record kind), ``simmpi_bytes_sent_total``
        and ``simmpi_collectives_total`` (by op) count the launch's
        tracer records; :func:`~repro.simmpi.launcher.run_spmd` calls
        this once as an observed launch ends, failed ones included.
        """
        counter = self.metrics.counter
        for rank, events in enumerate(window.events):
            records = list(trace_records(rank, events))
            for kind, n in Counter(r.kind for r in records).items():
                counter("simmpi_events_total").inc(float(n), rank=rank, labels={"kind": kind})
            sent = [r.nbytes for r in records if r.kind == "send"]
            if sent:
                counter("simmpi_bytes_sent_total").inc(float(sum(sent)), rank=rank)
            for op, n in Counter(r.label for r in records if r.kind == "collective").items():
                counter("simmpi_collectives_total").inc(float(n), rank=rank, labels={"op": op})

    # -- cross-process telemetry --------------------------------------------

    def telemetry_payload(self) -> dict:
        """Everything a worker process measured, as one picklable dict.

        Spans are serialised as nested trees (fresh ids are minted on
        absorb), metrics via :meth:`MetricsRegistry.payload`.  Tracer
        records are *not* included — each launch's log is folded into
        the communication counters (:meth:`absorb_log`), so the totals
        survive the hop even though individual message events do not;
        the trace is reduced to a wait-state health dict before the hop
        for the same reason.
        """

        def nest(span: Span) -> dict:
            return {
                "name": span.name,
                "rank": span.rank,
                "t_start": span.t_start,
                "t_end": span.t_end,
                "attrs": dict(span.attrs),
                "children": [nest(c) for c in span.children],
            }

        payload = {
            "spans": {
                rank: [nest(root) for root in roots]
                for rank, roots in self.all_roots().items()
            },
            "metrics": self.metrics.payload(),
        }
        if self.tracer.snapshot():
            from repro.obs.health import run_health

            payload["health"] = run_health(self.tracer).as_dict()
        return payload

    def absorb_telemetry(self, payload: dict) -> None:
        """Merge a worker hub's :meth:`telemetry_payload` into this hub.

        Span trees are re-rooted into the recorded rank's stack with
        freshly minted span ids; metric slots merge per (rank, labels).
        This is the parent side of the sweep engine's worker telemetry
        propagation.
        """
        if not self.config.enabled:
            return

        def rebuild(node: dict, parent_id: int | None) -> Span:
            span = Span(
                name=node["name"],
                rank=node["rank"],
                t_start=node["t_start"],
                t_end=node["t_end"],
                attrs=dict(node["attrs"]),
                parent_id=parent_id,
            )
            span.children = [rebuild(c, span.span_id) for c in node["children"]]
            return span

        for rank, roots in payload.get("spans", {}).items():
            stack = self._stack_for(int(rank))
            for root in roots:
                stack.roots.append(rebuild(root, None))
        self.metrics.absorb(payload.get("metrics", []))
        health = payload.get("health")
        if health:
            with self._lock:
                self._point_healths.append(health)

    def run_health(self):
        """The hub's wait-state report (:mod:`repro.obs.health`).

        Prefers the hub's own trace (an in-process run); otherwise
        merges the health dicts absorbed from worker telemetry.
        Returns None when neither source has data.
        """
        from repro.obs.health import RunHealthReport, merge_reports, run_health

        if self.tracer.snapshot():
            return run_health(self.tracer)
        with self._lock:
            absorbed = list(self._point_healths)
        if not absorbed:
            return None
        return merge_reports([RunHealthReport.from_dict(doc) for doc in absorbed])

    def attach_stream(self):
        """Create (or return) the hub's live telemetry sink.

        It appends to ``stream.jsonl`` under the config's ``out_dir``;
        without one the sink writes nothing.
        """
        if self.stream is None:
            from repro.obs.streaming import StreamingSink, stream_path

            target = self.config.resolved_dir()
            self.stream = StreamingSink(
                None if target is None else stream_path(target)
            )
        return self.stream

    # -- export -------------------------------------------------------------

    def export(self) -> tuple[Path, ...]:
        """Write the artifact files under the config's ``out_dir`` (required);
        returns their paths.  Files are published whole: a racing reader
        sees the previous generation or this one.
        """
        from repro.obs import exporters

        target = self.config.resolved_dir()
        if target is None:
            raise ObservabilityError("export needs an out_dir (none configured)")
        target.mkdir(parents=True, exist_ok=True)
        prefix = self.config.prefix
        written = [
            exporters.write_chrome_trace(self, target / f"{prefix}-trace.json"),
            exporters.write_spans_jsonl(self, target / f"{prefix}-spans.jsonl"),
            exporters.write_metrics_jsonl(self, target / f"{prefix}-metrics.jsonl"),
            write_atomic(target / f"{prefix}-metrics.prom",
                         exporters.prometheus_text(self.metrics).encode()),
        ]
        health = self.run_health()
        if health is not None:
            written.append(write_atomic(
                target / f"{prefix}-health.json",
                (json.dumps(health.as_dict(), indent=2) + "\n").encode(),
            ))
        if self.stream is not None:
            self.stream.flush()
        return tuple(written)
