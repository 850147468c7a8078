"""Execution traces: what each rank did, when (virtual time), how many bytes.

The tracer is the bridge between the executed simulation and the paper's
measurements: per-phase wall-clock averages come from reducing these
records exactly the way the authors reduced their timers (discard the
first iterations, average the rest — that part lives in
:mod:`repro.harness.results`).

The tracer is also the single source of communication truth for the
observability layer (:mod:`repro.obs`): an optional ``sink`` callable
receives every record as it is appended, which is how live metrics and
the Chrome-trace flow events are fed without a second recorder.

Concurrency discipline: there is no lock.  Each rank appends only to
its *own* per-rank buffer (plain ``list.append``, atomic under CPython),
so the hot path is contention-free under the thread-per-rank engine and
pure overhead-free under the cooperative event engine, where at most
one rank runs at a time.  Reductions merge the buffers rank-major --
deterministic and engine-independent, unlike the old single global list
whose interleaving depended on the OS schedule.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True)
class TraceRecord:
    """One traced event on one rank.

    ``rank`` and ``peer`` are world ranks, also for events on a
    ``split()`` / ``dup()`` communicator: a record belongs to the
    physical rank that produced it.
    """

    rank: int
    kind: str  # "send" | "recv" | "compute" | "collective" | "phase"
    t_start: float
    t_end: float
    nbytes: int = 0
    peer: int = -1
    tag: int = 0
    label: str = ""

    @property
    def duration(self) -> float:
        """Virtual duration of the event."""
        return self.t_end - self.t_start


class Tracer:
    """Collector of trace records for a whole SPMD run.

    Records live in per-rank append-only buffers (see the module
    docstring for why there is no lock); :attr:`records` and
    :meth:`snapshot` expose the rank-major merge.
    """

    __slots__ = ("enabled", "sink", "_buffers")

    def __init__(self, enabled: bool = True,
                 sink: Callable[[TraceRecord], None] | None = None):
        self.enabled = enabled
        self.sink = sink
        self._buffers: dict[int, list[TraceRecord]] = {}

    def __repr__(self) -> str:
        return f"Tracer(enabled={self.enabled}, records={len(self.records)})"

    def record(self, record: TraceRecord) -> None:
        """Append one record to its rank's buffer (no-op when disabled)."""
        if not self.enabled:
            return
        buffer = self._buffers.get(record.rank)
        if buffer is None:
            buffer = self._buffers.setdefault(record.rank, [])
        buffer.append(record)
        if self.sink is not None:
            self.sink(record)

    def _merged(self) -> Iterator[TraceRecord]:
        for rank in sorted(self._buffers):
            yield from self._buffers[rank]

    @property
    def records(self) -> list[TraceRecord]:
        """All records, rank-major (rank order, per-rank append order)."""
        return list(self._merged())

    def snapshot(self) -> tuple[TraceRecord, ...]:
        """An immutable rank-major merge of the per-rank buffers."""
        return tuple(self._merged())

    # -- reductions ------------------------------------------------------------

    def by_rank(self, rank: int) -> list[TraceRecord]:
        """All records of one rank, in recording order."""
        return list(self._buffers.get(rank, ()))

    def total_bytes_sent(self, rank: int | None = None) -> int:
        """Bytes sent by one rank (or all ranks)."""
        return sum(
            r.nbytes
            for r in self.snapshot()
            if r.kind == "send" and (rank is None or r.rank == rank)
        )

    def message_count(self, kind: str = "send") -> int:
        """Number of events of a given kind."""
        return sum(1 for r in self.snapshot() if r.kind == kind)

    def collective_count(self, label: str | None = None, rank: int | None = None) -> int:
        """Number of collective rounds, optionally for one label / one rank.

        Each rank records one "collective" event per round it joins, so
        ``collective_count(label="allreduce", rank=0)`` is the number of
        allreduce rounds rank 0 participated in — the counter the
        communication-reduced CG variant is measured against.
        """
        return sum(
            1
            for r in self.snapshot()
            if r.kind == "collective"
            and (label is None or r.label == label)
            and (rank is None or r.rank == rank)
        )

    def collective_counts_by_label(self, rank: int | None = None) -> dict[str, int]:
        """Collective round counts keyed by operation name."""
        out: dict[str, int] = defaultdict(int)
        for r in self.snapshot():
            if r.kind == "collective" and (rank is None or r.rank == rank):
                out[r.label] += 1
        return dict(out)

    def time_by_label(self) -> dict[str, float]:
        """Total virtual duration per label, summed over ranks."""
        out: dict[str, float] = defaultdict(float)
        for r in self.snapshot():
            if r.label:
                out[r.label] += r.duration
        return dict(out)

    def max_time_by_label(self) -> dict[str, float]:
        """Per label, the max over ranks of that rank's summed duration.

        This is the paper's reduction for per-phase numbers: the slowest
        rank determines the iteration's phase time.
        """
        per_rank: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for r in self.snapshot():
            if r.label:
                per_rank[r.label][r.rank] += r.duration
        return {label: max(ranks.values()) for label, ranks in per_rank.items()}

    def clear(self) -> None:
        """Drop all records."""
        self._buffers.clear()

    def timeline(self, width: int = 64, kinds: tuple[str, ...] = ("compute", "send", "recv")) -> str:
        """Render a per-rank text timeline (a poor man's Gantt chart).

        Each rank gets one lane of ``width`` characters spanning the
        run's virtual time; events paint their interval with a kind
        marker (``#`` compute, ``>`` send, ``<`` recv, ``=`` overlap).
        Instantaneous events paint a single cell.
        """
        records = [r for r in self.snapshot() if r.kind in kinds]
        if not records:
            return "(no trace records)\n"
        t_end = max(r.t_end for r in records)
        t_start = min(r.t_start for r in records)
        span = (t_end - t_start) or 1.0
        ranks = sorted({r.rank for r in records})
        marks = {"compute": "#", "send": ">", "recv": "<", "phase": "~", "collective": "+"}

        lanes: dict[int, list[str]] = {rank: [" "] * width for rank in ranks}
        for r in records:
            lo = int((r.t_start - t_start) / span * (width - 1))
            hi = max(lo, int((r.t_end - t_start) / span * (width - 1)))
            lane = lanes[r.rank]
            mark = marks.get(r.kind, "?")
            for col in range(lo, hi + 1):
                lane[col] = "=" if lane[col] not in (" ", mark) else mark
        lines = [
            f"rank {rank:>3} |{''.join(lane)}|" for rank, lane in lanes.items()
        ]
        lines.append(
            f"time: {t_start:.6f}s .. {t_end:.6f}s   "
            f"(# compute, > send, < recv, = overlap)"
        )
        return "\n".join(lines) + "\n"
