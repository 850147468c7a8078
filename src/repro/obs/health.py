"""Wait-state diagnosis: why ranks waited, not just how long a run took.

The paper's multi-platform story needs per-platform *explanations* —
"ellipse was slow because every collective waited on one straggler",
"EC2 spent its time in late-sender stalls" — so this module classifies
every second of traced communication time Scalasca-style:

* **late-sender** — a receiver blocked because the message had not
  arrived yet (recv duration beyond the fixed receive overhead);
* **late-receiver** — a sender completed early and its message sat in
  the mailbox waiting for the receiver to arrive (slack between send
  completion and recv start for already-arrived messages);
* **wait-at-collective** — time between a rank entering a collective
  round and the *last* rank entering it (the straggler bound).

On top of the taxonomy sit two scalar indices: **load imbalance**
(max/mean − 1 over per-rank compute time, the classic λ metric) and
**NIC saturation** (fraction of a rank's wall time its adapter spent
serializing payloads).

The decomposition is exact by construction: per rank,

    ``send_time + recv_overhead + late_sender + collective_wait +
    collective_work == merged communication time``

where the right-hand side is the same merged-interval comm total
:func:`repro.obs.analysis.overlap_report` reports — that identity is
what the reconciliation tests pin (late-receiver slack is reported
separately; it is sender-side idle time, not part of comm intervals).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from repro.harness.config import from_json, to_json
from repro.obs.analysis import _match_events, _timelines
from repro.simmpi.comm import RECV_OVERHEAD, SEND_OVERHEAD

#: Trace-record kinds that occupy a rank's communication timeline.
_COMM_KINDS = ("send", "recv", "collective")


@dataclass(frozen=True)
class RankHealth:
    """One rank's wait-state decomposition (all fields virtual seconds,
    except the counters and the dimensionless ``nic_saturation``)."""

    rank: int
    compute_time: float = 0.0
    comm_time: float = 0.0
    send_time: float = 0.0
    recv_overhead: float = 0.0
    late_sender: float = 0.0
    late_receiver: float = 0.0
    collective_wait: float = 0.0
    collective_work: float = 0.0
    nic_busy: float = 0.0
    nic_saturation: float = 0.0
    wall_time: float = 0.0
    sends: int = 0
    recvs: int = 0
    collectives: int = 0

    @property
    def wait_time(self) -> float:
        """Total diagnosed waiting: late-sender + collective wait."""
        return self.late_sender + self.collective_wait


@dataclass(frozen=True)
class RunHealthReport:
    """A run's wait-state classification plus the derived indices."""

    ranks: tuple[RankHealth, ...]
    load_imbalance: float = 0.0
    makespan: float = 0.0

    @property
    def num_ranks(self) -> int:
        """How many ranks the report covers."""
        return len(self.ranks)

    def total(self, name: str) -> float:
        """Sum one :class:`RankHealth` field across ranks."""
        return float(sum(getattr(r, name) for r in self.ranks))

    @property
    def comm_time(self) -> float:
        """Total communication time across ranks (merged intervals)."""
        return self.total("comm_time")

    @property
    def wait_time(self) -> float:
        """Total diagnosed waiting across ranks."""
        return self.total("late_sender") + self.total("collective_wait")

    @property
    def wait_fraction(self) -> float:
        """Diagnosed waiting as a fraction of communication time."""
        comm = self.comm_time
        return self.wait_time / comm if comm else 0.0

    @property
    def worst_rank(self) -> int | None:
        """The rank with the most diagnosed waiting (None when empty)."""
        if not self.ranks:
            return None
        return max(self.ranks, key=lambda r: r.wait_time).rank

    @property
    def nic_saturation(self) -> float:
        """The busiest adapter's busy fraction across ranks."""
        return max((r.nic_saturation for r in self.ranks), default=0.0)

    def as_dict(self) -> dict:
        """Plain-dict form (JSON-ready): the fields, each rank's row as
        ``to_json`` writes it, and the summary derived from them."""
        return {
            "num_ranks": self.num_ranks,
            "makespan": self.makespan,
            "load_imbalance": self.load_imbalance,
            "comm_time": self.comm_time,
            "wait_time": self.wait_time,
            "wait_fraction": self.wait_fraction,
            "nic_saturation": self.nic_saturation,
            "worst_rank": self.worst_rank,
            "totals": {
                name: self.total(name)
                for name in ("compute_time", "send_time", "recv_overhead",
                             "late_sender", "late_receiver",
                             "collective_wait", "collective_work", "nic_busy")
            },
            "ranks": to_json(self.ranks),
        }

    @staticmethod
    def from_dict(doc: dict) -> "RunHealthReport":
        """The report :meth:`as_dict` wrote (a health file, worker
        telemetry): its own fields, not the summary derived from them."""
        if type(doc) is dict:
            own = RunHealthReport.__dataclass_fields__
            doc = {key: value for key, value in doc.items() if key in own}
        return from_json(RunHealthReport, doc, "health report")

    def format(self) -> str:
        """Human-readable summary: indices, totals, worst offenders."""
        lines = [
            f"run health: {self.num_ranks} ranks, makespan {self.makespan:.6f}s",
            f"  load imbalance      {self.load_imbalance:8.3f}"
            f"  (max/mean - 1 over per-rank compute)",
            f"  nic saturation      {self.nic_saturation:8.3f}"
            f"  (busiest adapter busy fraction)",
            f"  comm time           {self.comm_time:.6f}s"
            f"  ({self.wait_fraction:.1%} diagnosed waiting)",
        ]
        for name, label in (
            ("late_sender", "late-sender wait"),
            ("late_receiver", "late-receiver slack"),
            ("collective_wait", "wait-at-collective"),
            ("collective_work", "collective work"),
            ("send_time", "send time"),
            ("recv_overhead", "recv overhead"),
        ):
            lines.append(f"    {label:<20}{self.total(name):.6f}s")
        if self.worst_rank is not None and self.ranks:
            worst = max(self.ranks, key=lambda r: r.wait_time)
            lines.append(
                f"  worst rank: {worst.rank} "
                f"({worst.wait_time:.6f}s waiting, "
                f"{worst.late_sender:.6f}s late-sender, "
                f"{worst.collective_wait:.6f}s at collectives)"
            )
        return "\n".join(lines) + "\n"


@dataclass
class _RankAccum:
    """Mutable accumulator behind one :class:`RankHealth`."""

    compute_time: float = 0.0
    comm_time: float = 0.0
    send_time: float = 0.0
    recv_overhead: float = 0.0
    late_sender: float = 0.0
    late_receiver: float = 0.0
    collective_wait: float = 0.0
    collective_work: float = 0.0
    nic_busy: float = 0.0
    t_lo: float = math.inf
    t_hi: float = -math.inf
    sends: int = 0
    recvs: int = 0
    collectives: int = 0
    counted: set = field(default_factory=set)


def _top_level(records: list) -> list[int]:
    """Indices of comm records not nested inside another comm record.

    A rank executes sequentially in virtual time, so records nest by
    strict containment (sends issued inside a collective lie within the
    collective's interval).  A greedy sweep over the ``(t_start, t_end)``
    sorted list keeps exactly the outermost cover, whose summed
    durations equal the rank's merged communication time.
    """
    comm = [i for i, rec in enumerate(records) if rec.kind in _COMM_KINDS]
    # The caller's list is sorted ``(t_start, t_end)``, which places an
    # inner record *before* its enclosing collective when both start at
    # the same instant; scan outermost-first instead.
    comm.sort(key=lambda i: (records[i].t_start, -records[i].t_end))
    top: list[int] = []
    covered = -math.inf
    for i in comm:
        if records[i].t_start >= covered:
            top.append(i)
            covered = records[i].t_end
    return top


def run_health(tracer) -> RunHealthReport:
    """Classify a traced run's communication time into wait states.

    ``tracer`` is a :class:`~repro.simmpi.tracing.Tracer` (or an object
    exposing one as ``.tracer``, e.g. an
    :class:`~repro.obs.core.Observability` hub or an
    :class:`~repro.simmpi.launcher.SPMDResult`).  Works on any traced
    run — live, replayed, or loaded — with no causal tracking required.
    """
    by_rank = _timelines(getattr(tracer, "tracer", tracer).snapshot())
    recv_to_send, coll_to_last = _match_events(by_rank)

    accums: dict[int, _RankAccum] = defaultdict(_RankAccum)
    for rank, records in by_rank.items():
        acc = accums[rank]
        for rec in records:
            acc.t_lo = min(acc.t_lo, rec.t_start)
            acc.t_hi = max(acc.t_hi, rec.t_end)
            if rec.kind == "compute":
                acc.compute_time += rec.duration
            elif rec.kind == "send":
                acc.sends += 1
                acc.nic_busy += max(0.0, rec.duration - SEND_OVERHEAD)
            elif rec.kind == "recv":
                acc.recvs += 1
            elif rec.kind == "collective":
                acc.collectives += 1
        for i in _top_level(records):
            rec = records[i]
            dur = rec.duration
            acc.comm_time += dur
            if rec.kind == "send":
                acc.send_time += dur
            elif rec.kind == "recv":
                wait = max(0.0, dur - RECV_OVERHEAD)
                acc.late_sender += wait
                acc.recv_overhead += dur - wait
            elif rec.kind == "collective":
                last = coll_to_last.get((rank, i))
                if last is None or last == (rank, i):
                    wait = 0.0
                else:
                    last_rec = by_rank[last[0]][last[1]]
                    wait = min(max(0.0, last_rec.t_start - rec.t_start), dur)
                acc.collective_wait += wait
                acc.collective_work += dur - wait

    # Late-receiver slack is charged to the *sender*: its message sat
    # delivered while the receiver had not arrived yet.
    for recv_handle, send_handle in recv_to_send.items():
        send_rec = by_rank[send_handle[0]][send_handle[1]]
        recv_rec = by_rank[recv_handle[0]][recv_handle[1]]
        accums[send_handle[0]].late_receiver += max(
            0.0, recv_rec.t_start - send_rec.t_end
        )

    ranks = []
    for rank in sorted(accums):
        acc = accums[rank]
        wall = max(0.0, acc.t_hi - acc.t_lo) if acc.t_hi >= acc.t_lo else 0.0
        ranks.append(RankHealth(
            rank=rank,
            compute_time=acc.compute_time,
            comm_time=acc.comm_time,
            send_time=acc.send_time,
            recv_overhead=acc.recv_overhead,
            late_sender=acc.late_sender,
            late_receiver=acc.late_receiver,
            collective_wait=acc.collective_wait,
            collective_work=acc.collective_work,
            nic_busy=acc.nic_busy,
            nic_saturation=acc.nic_busy / wall if wall > 0 else 0.0,
            wall_time=wall,
            sends=acc.sends,
            recvs=acc.recvs,
            collectives=acc.collectives,
        ))

    computes = [r.compute_time for r in ranks if r.compute_time > 0]
    if computes and len(computes) > 1:
        mean = sum(computes) / len(computes)
        imbalance = max(computes) / mean - 1.0 if mean > 0 else 0.0
    else:
        imbalance = 0.0
    makespan = max((r.wall_time for r in ranks), default=0.0)
    return RunHealthReport(
        ranks=tuple(ranks), load_imbalance=imbalance, makespan=makespan
    )


def merge_reports(reports: list["RunHealthReport"]) -> "RunHealthReport | None":
    """Aggregate per-point reports into one sweep-level report.

    Rank rows are summed field-wise by rank id; the indices are
    recomputed from the merged rows (``makespan`` becomes the max over
    points).  Returns None for an empty list.
    """
    reports = [r for r in reports if r is not None]
    if not reports:
        return None
    if len(reports) == 1:
        return reports[0]
    sums: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for report in reports:
        for row in report.ranks:
            agg = sums[row.rank]
            for name in ("compute_time", "comm_time", "send_time",
                         "recv_overhead", "late_sender", "late_receiver",
                         "collective_wait", "collective_work", "nic_busy",
                         "wall_time", "sends", "recvs", "collectives"):
                agg[name] += getattr(row, name)
    ranks = []
    for rank in sorted(sums):
        agg = sums[rank]
        wall = agg["wall_time"]
        ranks.append(RankHealth(
            rank=rank,
            compute_time=agg["compute_time"],
            comm_time=agg["comm_time"],
            send_time=agg["send_time"],
            recv_overhead=agg["recv_overhead"],
            late_sender=agg["late_sender"],
            late_receiver=agg["late_receiver"],
            collective_wait=agg["collective_wait"],
            collective_work=agg["collective_work"],
            nic_busy=agg["nic_busy"],
            nic_saturation=agg["nic_busy"] / wall if wall > 0 else 0.0,
            wall_time=wall,
            sends=int(agg["sends"]),
            recvs=int(agg["recvs"]),
            collectives=int(agg["collectives"]),
        ))
    computes = [r.compute_time for r in ranks if r.compute_time > 0]
    if computes and len(computes) > 1:
        mean = sum(computes) / len(computes)
        imbalance = max(computes) / mean - 1.0 if mean > 0 else 0.0
    else:
        imbalance = 0.0
    return RunHealthReport(
        ranks=tuple(ranks),
        load_imbalance=imbalance,
        makespan=max(r.makespan for r in reports),
    )


__all__ = ["RankHealth", "RunHealthReport", "run_health", "merge_reports"]
