"""Typed metrics instruments with per-rank views and cross-rank merge.

Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter` — monotonically increasing totals (allreduce rounds,
  restarts, bytes sent);
* :class:`Gauge` — last-written values (current backoff, step number);
* :class:`Histogram` — fixed exponential buckets with ``sum``/``count``
  (phase seconds, checkpoint durations), so means and tail estimates
  survive aggregation.

Every instrument keeps one slot per ``(rank, labels)`` pair.  Slots are
created under the registry lock, but *updates* are lock-free: a slot is
only ever written by its own rank's program, which never runs on two
threads at once under either simmpi engine.  That keeps the enabled
path cheap and the disabled path (a single boolean test) nearly free.

``merged()`` reduces across ranks: counters sum, gauges keep the
maximum, histograms add bucket counts — the reduction an mpi4py program
would do with one allreduce before printing.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from repro.errors import ObservabilityError

LabelItems = tuple[tuple[str, str], ...]


def _label_key(labels: dict | None) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """Upper bounds ``start * factor**i`` for ``i in range(count)``."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ObservabilityError(
            f"invalid exponential buckets (start={start}, factor={factor}, count={count})"
        )
    return tuple(start * factor**i for i in range(count))


#: Default span: 1 µs .. ~67 s in doubling steps — covers everything from
#: a single preconditioner apply to a full experiment sweep.
DEFAULT_BUCKETS = exponential_buckets(1e-6, 2.0, 27)


class Instrument:
    """Common slot bookkeeping for the three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._slots: dict[tuple[int, LabelItems], object] = {}
        self._lock = threading.Lock()

    def _slot(self, rank: int, labels: dict | None):
        key = (rank, _label_key(labels))
        slot = self._slots.get(key)
        if slot is None:
            with self._lock:
                slot = self._slots.setdefault(key, self._new_slot())
        return slot

    def _new_slot(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def slots(self) -> dict[tuple[int, LabelItems], object]:
        """Snapshot of ``(rank, labels) -> slot`` (for exporters)."""
        with self._lock:
            return dict(self._slots)

    def label_sets(self) -> list[LabelItems]:
        """Distinct label sets seen so far."""
        return sorted({labels for _, labels in self.slots()})

    def ranks(self) -> list[int]:
        """Ranks that have written this instrument."""
        return sorted({rank for rank, _ in self.slots()})


class _CounterSlot:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0


class Counter(Instrument):
    """Monotonic counter."""

    kind = "counter"

    def _new_slot(self):
        return _CounterSlot()

    def inc(self, value: float = 1.0, rank: int = 0, labels: dict | None = None) -> None:
        """Add ``value`` (must be >= 0) to this rank's slot."""
        if value < 0:
            raise ObservabilityError(f"counter {self.name}: negative increment {value}")
        self._slot(rank, labels).value += value

    def value(self, rank: int = 0, labels: dict | None = None) -> float:
        """One slot's current value (0 if never written)."""
        slot = self._slots.get((rank, _label_key(labels)))
        return 0.0 if slot is None else slot.value

    def total(self, labels: dict | None = None) -> float:
        """Cross-rank sum for one label set."""
        key = _label_key(labels)
        return sum(s.value for (r, lk), s in self.slots().items() if lk == key)


class _GaugeSlot:
    __slots__ = ("value",)

    def __init__(self):
        self.value = math.nan


class Gauge(Instrument):
    """Last-written value."""

    kind = "gauge"

    def _new_slot(self):
        return _GaugeSlot()

    def set(self, value: float, rank: int = 0, labels: dict | None = None) -> None:
        """Overwrite this rank's slot."""
        self._slot(rank, labels).value = float(value)

    def value(self, rank: int = 0, labels: dict | None = None) -> float:
        """One slot's value (NaN if never written)."""
        slot = self._slots.get((rank, _label_key(labels)))
        return math.nan if slot is None else slot.value

    def max(self, labels: dict | None = None) -> float:
        """Cross-rank maximum for one label set (the paper's reduction)."""
        key = _label_key(labels)
        values = [s.value for (r, lk), s in self.slots().items()
                  if lk == key and not math.isnan(s.value)]
        return max(values) if values else math.nan


class _HistogramSlot:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, num_buckets: int):
        self.bucket_counts = [0] * num_buckets  # cumulative at export, raw here
        self.sum = 0.0
        self.count = 0


class Histogram(Instrument):
    """Fixed exponential-bucket histogram with exact sum and count."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        super().__init__(name, help)
        if list(buckets) != sorted(buckets) or len(buckets) < 1:
            raise ObservabilityError(f"histogram {name}: buckets must be sorted")
        self.buckets = tuple(float(b) for b in buckets)

    def _new_slot(self):
        return _HistogramSlot(len(self.buckets))

    def observe(self, value: float, rank: int = 0, labels: dict | None = None) -> None:
        """Record one observation."""
        slot = self._slot(rank, labels)
        slot.sum += value
        slot.count += 1
        # Raw (non-cumulative) per-bucket counts; the +Inf overflow lives
        # implicitly in count - sum(bucket_counts).
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                slot.bucket_counts[i] += 1
                break

    def stats(self, rank: int | None = None, labels: dict | None = None) -> dict:
        """``{"count", "sum", "mean"}`` for one rank (or merged over ranks)."""
        key = _label_key(labels)
        total = 0.0
        count = 0
        for (r, lk), slot in self.slots().items():
            if lk != key or (rank is not None and r != rank):
                continue
            total += slot.sum
            count += slot.count
        mean = total / count if count else math.nan
        return {"count": count, "sum": total, "mean": mean}

    def cumulative_buckets(self, rank: int | None = None,
                           labels: dict | None = None) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending with +Inf."""
        key = _label_key(labels)
        raw = [0] * len(self.buckets)
        count = 0
        for (r, lk), slot in self.slots().items():
            if lk != key or (rank is not None and r != rank):
                continue
            for i, c in enumerate(slot.bucket_counts):
                raw[i] += c
            count += slot.count
        out = []
        running = 0
        for bound, c in zip(self.buckets, raw):
            running += c
            out.append((bound, running))
        out.append((math.inf, count))
        return out


@dataclass(frozen=True)
class MergedSample:
    """One reduced series in a merged snapshot."""

    name: str
    kind: str
    labels: LabelItems
    value: float


class MetricsRegistry:
    """Name -> instrument registry; the per-run metrics hub.

    ``enabled=False`` turns every lookup into a no-op singleton so
    instrumented code costs one attribute test when observability is off.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: dict[str, Instrument] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, factory, kind: str):
        inst = self._instruments.get(name)
        if inst is None:
            with self._lock:
                inst = self._instruments.get(name)
                if inst is None:
                    inst = factory()
                    self._instruments[name] = inst
        if inst.kind != kind:
            raise ObservabilityError(
                f"metric {name!r} already registered as {inst.kind}, not {kind}"
            )
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a counter."""
        if not self.enabled:
            return _NULL_COUNTER
        return self._get(name, lambda: Counter(name, help), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a gauge."""
        if not self.enabled:
            return _NULL_GAUGE
        return self._get(name, lambda: Gauge(name, help), "gauge")

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create a histogram."""
        if not self.enabled:
            return _NULL_HISTOGRAM
        return self._get(name, lambda: Histogram(name, help, buckets), "histogram")

    def instruments(self) -> list[Instrument]:
        """All registered instruments, sorted by name."""
        with self._lock:
            return [self._instruments[k] for k in sorted(self._instruments)]

    def merged(self) -> list[MergedSample]:
        """Cross-rank reduction: counters sum, gauges max, histogram means."""
        out: list[MergedSample] = []
        for inst in self.instruments():
            for labels in inst.label_sets():
                ld = dict(labels)
                if inst.kind == "counter":
                    value = inst.total(ld)
                elif inst.kind == "gauge":
                    value = inst.max(ld)
                else:
                    value = inst.stats(labels=ld)["mean"]
                out.append(MergedSample(inst.name, inst.kind, labels, value))
        return out


    def payload(self) -> list[dict]:
        """Picklable instrument snapshots (cross-process metric transfer).

        Each entry carries one instrument's identity plus raw slot data;
        :meth:`absorb` on another registry merges it losslessly —
        counters add, gauges overwrite, histograms merge bucket counts —
        which is how the parallel sweep engine propagates worker-process
        metrics back into the parent hub.
        """
        out = []
        for inst in self.instruments():
            entry: dict = {"name": inst.name, "kind": inst.kind, "help": inst.help}
            if inst.kind == "histogram":
                entry["buckets"] = list(inst.buckets)
            slots = []
            for (rank, labels), slot in sorted(
                inst.slots().items(), key=lambda kv: (kv[0][0], kv[0][1])
            ):
                record: dict = {"rank": rank, "labels": [list(kv) for kv in labels]}
                if inst.kind == "histogram":
                    record.update(
                        bucket_counts=list(slot.bucket_counts),
                        sum=slot.sum,
                        count=slot.count,
                    )
                else:
                    record["value"] = slot.value
                slots.append(record)
            entry["slots"] = slots
            out.append(entry)
        return out

    def absorb(self, payload: list[dict]) -> None:
        """Merge another registry's :meth:`payload` into this one."""
        if not self.enabled:
            return
        for entry in payload:
            kind = entry["kind"]
            if kind == "counter":
                inst = self.counter(entry["name"], entry.get("help", ""))
            elif kind == "gauge":
                inst = self.gauge(entry["name"], entry.get("help", ""))
            elif kind == "histogram":
                inst = self.histogram(
                    entry["name"], entry.get("help", ""),
                    buckets=tuple(entry["buckets"]),
                )
            else:
                raise ObservabilityError(
                    f"cannot absorb metric {entry['name']!r} of kind {kind!r}"
                )
            for record in entry["slots"]:
                labels = {k: v for k, v in record["labels"]}
                rank = record["rank"]
                if kind == "counter":
                    inst.inc(record["value"], rank=rank, labels=labels)
                elif kind == "gauge":
                    inst.set(record["value"], rank=rank, labels=labels)
                else:
                    slot = inst._slot(rank, labels)
                    if len(slot.bucket_counts) != len(record["bucket_counts"]):
                        raise ObservabilityError(
                            f"histogram {entry['name']!r}: bucket mismatch on absorb"
                        )
                    for i, c in enumerate(record["bucket_counts"]):
                        slot.bucket_counts[i] += c
                    slot.sum += record["sum"]
                    slot.count += record["count"]


class _NullCounter(Counter):
    def __init__(self):
        super().__init__("null")

    def inc(self, value=1.0, rank=0, labels=None):
        pass


class _NullGauge(Gauge):
    def __init__(self):
        super().__init__("null")

    def set(self, value, rank=0, labels=None):
        pass


class _NullHistogram(Histogram):
    def __init__(self):
        super().__init__("null")

    def observe(self, value, rank=0, labels=None):
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
