"""Analysis passes over a run's spans and trace.

Three consumers of one :class:`~repro.obs.core.Observability` hub:

* :func:`phase_statistics` — per-phase durations from the span tree,
  reduced exactly like the paper's protocol in
  :mod:`repro.apps.phases` / :mod:`repro.harness.results`: drop the
  first ``discard`` iterations, average the rest (same left-to-right
  float accumulation, so the numbers agree bit-for-bit with
  ``PhaseLog.averages()``).
* :func:`critical_path` — a backward walk over the send/recv/collective
  happens-before graph from the run's last event, reporting which
  ``(rank, phase)`` bounds each step.
* :func:`overlap_report` — per-rank communication/computation/idle
  decomposition and how much of each rank's communication time overlaps
  computation elsewhere (the latency the virtual network actually hid).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass

from repro.apps.phases import PHASE_NAMES
from repro.obs.spans import Span, iter_spans, spans_named

# ---------------------------------------------------------------------------
# Phase statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseStats:
    """Reduced statistics of one phase on one rank (or merged)."""

    name: str
    rank: int | None
    count: int
    mean: float
    total: float
    max: float


def _phase_series(roots: list[Span]) -> dict[str, list[float]]:
    """Per phase, one duration per step (children summed within a step)."""
    series: dict[str, list[float]] = {p: [] for p in PHASE_NAMES}
    for step in spans_named(roots, "step"):
        per_phase = {p: 0.0 for p in PHASE_NAMES}
        for child in step.children:
            if child.name in per_phase and child.closed:
                per_phase[child.name] += child.duration
        for p in PHASE_NAMES:
            series[p].append(per_phase[p])
    return series


def phase_statistics(obs) -> dict[int | None, dict[str, PhaseStats]]:
    """Per-rank (and merged) phase statistics with the paper's reduction.

    Each ``step`` span's children named in ``PHASE_NAMES`` make one
    iteration's phase durations.

    The merged row (key ``None``) takes, per iteration, the *maximum*
    over ranks — the slowest rank bounds the iteration, §VII.A's "total
    maximal iteration time" — before the discard-and-average step of
    :meth:`~repro.apps.phases.PhaseLog.averages`, which drops the hub's
    ``config.discard`` warm-up iterations.
    """
    discard = obs.config.discard
    out: dict[int | None, dict[str, PhaseStats]] = {}
    all_series: dict[int, dict[str, list[float]]] = {}
    for rank, roots in obs.all_roots().items():
        series = _phase_series(roots)
        if not any(series.values()):
            continue
        all_series[rank] = series
        out[rank] = {
            p: _reduce(p, rank, values, discard) for p, values in series.items()
        }
    if all_series:
        merged: dict[str, PhaseStats] = {}
        for p in PHASE_NAMES:
            columns = [s[p] for s in all_series.values()]
            n = min(len(c) for c in columns)
            per_iter = [max(c[i] for c in columns) for i in range(n)]
            merged[p] = _reduce(p, None, per_iter, discard)
        out[None] = merged
    return out


def _reduce(name: str, rank: int | None, values: list[float],
            discard: int) -> PhaseStats:
    kept = values[discard:]
    if not kept:
        return PhaseStats(name, rank, 0, math.nan, 0.0, math.nan)
    n = len(kept)
    total = sum(kept)  # left-to-right, same accumulation as PhaseLog
    return PhaseStats(name, rank, n, total / n, total, max(kept))


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathSegment:
    """One event on the critical path (forward time order in the report)."""

    rank: int
    kind: str
    label: str
    t_start: float
    t_end: float
    phase: str
    step: int | None

    @property
    def duration(self) -> float:
        """Virtual time this event contributed to the path."""
        return self.t_end - self.t_start


@dataclass(frozen=True)
class CriticalPathReport:
    """The extracted path plus its per-(rank, phase) attribution."""

    segments: tuple[PathSegment, ...]

    @property
    def length(self) -> float:
        """End-to-end virtual time spanned by the path."""
        if not self.segments:
            return 0.0
        return self.segments[-1].t_end - self.segments[0].t_start

    def time_by_rank_phase(self) -> dict[tuple[int, str], float]:
        """(rank, phase) -> summed path time."""
        out: dict[tuple[int, str], float] = defaultdict(float)
        for seg in self.segments:
            out[(seg.rank, seg.phase)] += seg.duration
        return dict(out)

    def bounding_by_step(self) -> dict[int, tuple[int, str]]:
        """step -> the (rank, phase) holding the most path time in it."""
        per_step: dict[int, dict[tuple[int, str], float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for seg in self.segments:
            if seg.step is None:
                continue
            per_step[seg.step][(seg.rank, seg.phase)] += seg.duration
        return {
            step: max(attributions.items(), key=lambda kv: kv[1])[0]
            for step, attributions in sorted(per_step.items())
        }

    def format(self) -> str:
        """Human-readable report: per-step bound, then the attribution."""
        lines = [f"critical path: {len(self.segments)} events, "
                 f"{self.length:.6f}s end to end"]
        for step, (rank, phase) in self.bounding_by_step().items():
            lines.append(f"  step {step}: bounded by rank {rank}, "
                         f"phase {phase or '(none)'}")
        for (rank, phase), t in sorted(
            self.time_by_rank_phase().items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  rank {rank:>3} {phase or '(none)':<16} {t:.6f}s")
        return "\n".join(lines) + "\n"


class _SpanIndex:
    """Per-rank interval lookup: time -> (innermost phase, step index)."""

    def __init__(self, roots: list[Span]):
        self._phase_ivals: list[tuple[float, float, str]] = []
        self._step_ivals: list[tuple[float, float, int]] = []
        step_idx = 0
        for span in iter_spans(roots):
            if not span.closed:
                continue
            if span.name in PHASE_NAMES:
                self._phase_ivals.append((span.t_start, span.t_end, span.name))
            elif span.name == "step":
                idx = span.attrs.get("step", step_idx)
                self._step_ivals.append((span.t_start, span.t_end, int(idx)))
                step_idx += 1
        self._phase_ivals.sort()
        self._step_ivals.sort()
        self._phase_starts = [iv[0] for iv in self._phase_ivals]
        self._step_starts = [iv[0] for iv in self._step_ivals]

    @staticmethod
    def _lookup(starts, ivals, t):
        i = bisect_right(starts, t) - 1
        while i >= 0:
            t0, t1, value = ivals[i]
            if t <= t1:
                return value
            i -= 1
        return None

    def phase_at(self, t: float) -> str:
        value = self._lookup(self._phase_starts, self._phase_ivals, t)
        return "" if value is None else value

    def step_at(self, t: float) -> int | None:
        return self._lookup(self._step_starts, self._step_ivals, t)


def _timelines(records) -> dict[int, list]:
    """Each rank's trace records in ``(t_start, t_end)`` order: the
    per-rank lists :func:`_match_events` hands out indices into."""
    by_rank: dict[int, list] = defaultdict(list)
    for r in records:
        by_rank[r.rank].append(r)
    for rank_records in by_rank.values():
        rank_records.sort(key=lambda r: (r.t_start, r.t_end))
    return by_rank


def _match_events(by_rank):
    """recv -> matching send, collective -> last-entrant record handles.

    Handles are ``(rank, index_into_rank_list)``.  A receive pairs with
    the send its ``(sender, seq)`` identity names
    (:attr:`~repro.simmpi.tracing.TraceRecord.message`).  Collective
    rounds match by per-label occurrence index (round *i* of
    ``allreduce`` on every rank is the same round; the receiver side of
    a collective records no "recv" events).
    """
    sends: dict[tuple[int, int], tuple[int, int]] = {}
    recvs: list[tuple[tuple[int, int], tuple[int, int]]] = []
    rounds: dict[tuple[str, int], list] = defaultdict(list)
    for rank, records in by_rank.items():
        counts: dict[str, int] = defaultdict(int)
        for i, r in enumerate(records):
            handle = (rank, i)
            if r.kind == "collective":
                rounds[(r.label, counts[r.label])].append(handle)
                counts[r.label] += 1
            elif r.kind == "send":
                sends[r.message] = handle
            elif r.kind == "recv" and r.seq >= 0:  # unnumbered: no pair
                recvs.append((handle, r.message))

    recv_to_send = {
        handle: sends[message] for handle, message in recvs if message in sends
    }

    coll_to_last = {}
    for _round, handles in rounds.items():
        last = max(handles, key=lambda h: by_rank[h[0]][h[1]].t_start)
        for h in handles:
            coll_to_last[h] = last
    return recv_to_send, coll_to_last


def critical_path(obs) -> CriticalPathReport:
    """Walk the happens-before graph backward from the run's last event.

    At every event the walk asks what completed it last: the preceding
    event on the same rank, the matching send (a recv that sat waiting),
    or the last rank to enter a collective round.  The chain of those
    answers is the critical path; time on it is attributed to the
    enclosing (rank, ``PHASE_NAMES`` phase, ``step`` span) from the span
    tree.
    """
    by_rank = _timelines(obs.tracer.snapshot())
    if not by_rank:
        # A zero-op or p=1 communication-free run has no path to walk;
        # an empty report (length 0.0, empty attribution) composes with
        # downstream formatting, where raising would not.
        return CriticalPathReport(segments=())
    recv_to_send, coll_to_last = _match_events(by_rank)

    indexes = {
        rank: _SpanIndex(roots)
        for rank, roots in obs.all_roots().items()
    }
    empty = _SpanIndex([])

    # Start at the globally last-finishing event.
    current = max(
        ((rank, i) for rank, rs in by_rank.items() for i in range(len(rs))),
        key=lambda h: by_rank[h[0]][h[1]].t_end,
    )
    path = []
    budget = sum(map(len, by_rank.values())) + 1  # upper bound on path length
    while current is not None and budget > 0:
        budget -= 1
        rank, i = current
        rec = by_rank[rank][i]
        path.append(current)
        jump = None
        if rec.kind == "recv":
            send = recv_to_send.get(current)
            # The recv was bound by the sender only if the message was
            # not already waiting when the receiver arrived.
            if send is not None and by_rank[send[0]][send[1]].t_end > rec.t_start:
                jump = send
        elif rec.kind == "collective":
            last = coll_to_last.get(current)
            if last is not None and last != current:
                jump = last
        if jump is None:
            jump = (rank, i - 1) if i > 0 else None
        current = jump

    path.reverse()
    segments = []
    for rank, i in path:
        rec = by_rank[rank][i]
        index = indexes.get(rank, empty)
        mid = (rec.t_start + rec.t_end) / 2.0
        segments.append(PathSegment(
            rank=rank, kind=rec.kind, label=rec.label,
            t_start=rec.t_start, t_end=rec.t_end,
            phase=index.phase_at(mid), step=index.step_at(mid),
        ))
    return CriticalPathReport(segments=tuple(segments))


# ---------------------------------------------------------------------------
# Communication / computation overlap
# ---------------------------------------------------------------------------


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for t0, t1 in sorted(intervals):
        if merged and t0 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], t1)
        else:
            merged.append([t0, t1])
    return [(a, b) for a, b in merged]


def _intersection(a: list[tuple[float, float]],
                  b: list[tuple[float, float]]) -> float:
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def overlap_report(obs) -> dict:
    """Per-rank comm/compute/idle split and cross-rank overlap ratios.

    ``overlap_ratio`` for a rank is the fraction of its communication
    time during which at least one *other* rank was computing — the
    latency the run actually hid behind computation elsewhere.
    """
    comm_kinds = ("send", "recv", "collective")
    comm: dict[int, list[tuple[float, float]]] = defaultdict(list)
    compute: dict[int, list[tuple[float, float]]] = defaultdict(list)
    t_lo, t_hi = math.inf, -math.inf
    for r in obs.tracer.snapshot():
        t_lo = min(t_lo, r.t_start)
        t_hi = max(t_hi, r.t_end)
        if r.kind in comm_kinds and r.duration > 0:
            comm[r.rank].append((r.t_start, r.t_end))
        elif r.kind == "compute" and r.duration > 0:
            compute[r.rank].append((r.t_start, r.t_end))
    ranks = sorted(set(comm) | set(compute))
    if not ranks:
        # Zero-op / p=1 runs: report an empty window rather than raise,
        # matching critical_path's empty-trace behaviour.
        return {"window": 0.0, "ranks": {}, "overlap_ratio": math.nan}
    window = max(t_hi - t_lo, 0.0)

    merged_comm = {rank: _merge_intervals(comm[rank]) for rank in ranks}
    merged_compute = {rank: _merge_intervals(compute[rank]) for rank in ranks}
    per_rank = {}
    for rank in ranks:
        others = _merge_intervals(
            [iv for other, ivs in merged_compute.items()
             if other != rank for iv in ivs]
        )
        comm_time = sum(b - a for a, b in merged_comm[rank])
        compute_time = sum(b - a for a, b in merged_compute[rank])
        overlapped = _intersection(merged_comm[rank], others)
        per_rank[rank] = {
            "comm": comm_time,
            "compute": compute_time,
            "idle": max(window - comm_time - compute_time, 0.0),
            "overlap": overlapped,
            "overlap_ratio": overlapped / comm_time if comm_time else math.nan,
        }
    total_comm = sum(v["comm"] for v in per_rank.values())
    total_overlap = sum(v["overlap"] for v in per_rank.values())
    return {
        "window": window,
        "ranks": per_rank,
        "overlap_ratio": total_overlap / total_comm if total_comm else math.nan,
    }
