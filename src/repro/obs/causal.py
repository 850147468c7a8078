"""Causal tracing: Lamport + vector clocks derived from the event log.

The simulator's virtual clocks order events in *time*; they cannot prove
the event stream is consistent with the *happens-before* partial order
(Lamport 1978).  This module adds that proof obligation:

* a :class:`CausalTracker` derives, per world rank, a Lamport clock and
  a dense vector clock (the dynamic-vector-clock construction of
  Mattern/Fidge) in one pass over each launch's
  :class:`~repro.simmpi.tracing.EventLog` window, when :meth:`check`,
  :meth:`clock_state` or :meth:`events_for` first asks.  Sends,
  receives (collective-internal ones included) and collective-round
  entries and exits tick a rank's clocks; a receive first merges the
  clocks of the send its ``(sender, seq)`` identity names.  A message
  carries nothing but that integer, outside its payload, so causal
  tracing cannot perturb virtual time, byte accounting, or schedule
  recordings (the bit-identity tests pin this) -- under both engines
  and on the replay path, which logs through the same sites.
* :meth:`CausalTracker.check` validates the derived stream: per-rank
  clock monotonicity, sender-dominance of every receive, the
  synchronization property of fully-synchronizing collectives, and --
  given the run's tracer -- that every traced receive's identity names
  a traced send with the same endpoints, tag and size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simmpi.tracing import COLLECTIVE, ENTER, RECV, SEND, LogWindow

#: Collectives after which *every* participant causally depends on
#: *every* participant's entry (all-to-all information flow).  ``scan``,
#: ``bcast``, ``reduce``, ``gather`` and ``scatter`` are deliberately
#: absent: their information flow is one-directional, so exit clocks
#: need not dominate all entries.
SYNCHRONIZING_COLLECTIVES = frozenset(
    {"barrier", "allreduce", "allgather", "alltoall", "reduce_scatter_block"}
)

#: Log event kinds that tick a rank's clocks, and their event names.
_TICKS = {SEND: "send", RECV: "recv", ENTER: "coll_enter", COLLECTIVE: "coll_exit"}


@dataclass(frozen=True, eq=False)
class CausalEvent:
    """One causally-stamped event on one rank.

    ``kind`` is ``"send"`` / ``"recv"`` / ``"coll_enter"`` /
    ``"coll_exit"``.  For sends ``seq`` is the message's sequence
    number; for recvs ``origin`` is the ``(sender_rank, seq)`` identity
    of the absorbed message (None when its send is not in the log).
    ``peer`` is a world rank (or -1), ``vector`` a frozen snapshot.
    """

    rank: int
    kind: str
    peer: int
    tag: int
    label: str
    seq: int
    origin: tuple[int, int] | None
    lamport: int
    vector: np.ndarray

    @property
    def clock(self) -> tuple[int, tuple[int, ...]]:
        """The (lamport, vector) pair — the violation-context format."""
        return (self.lamport, tuple(int(v) for v in self.vector))


@dataclass(frozen=True)
class CausalViolation:
    """One happens-before inconsistency, with (rank, op, clock) context."""

    rank: int
    op: str
    clock: tuple[int, tuple[int, ...]]
    detail: str

    def format(self) -> str:
        """One human-readable line."""
        return (f"rank {self.rank} {self.op} at clock "
                f"L={self.clock[0]} V={list(self.clock[1])}: {self.detail}")


@dataclass(frozen=True)
class CausalReport:
    """What a causal check covered and every violation it found."""

    violations: tuple[CausalViolation, ...]
    events_checked: int = 0
    messages_checked: int = 0
    rounds_checked: int = 0
    matches_checked: int = 0
    dropped_events: int = 0

    @property
    def ok(self) -> bool:
        """True when the checked stream is happens-before consistent."""
        return not self.violations

    def format(self) -> str:
        """Human-readable summary plus one line per violation."""
        head = (f"causal check: {'OK' if self.ok else 'VIOLATIONS'} "
                f"({self.events_checked} events, "
                f"{self.messages_checked} messages, "
                f"{self.rounds_checked} sync rounds, "
                f"{self.matches_checked} matches cross-checked"
                + (f", {self.dropped_events} events dropped"
                   if self.dropped_events else "") + ")")
        return "\n".join([head] + [v.format() for v in self.violations])


def _walk(window: LogWindow, lamport: list[int], vectors: np.ndarray,
          kept: list[list[CausalEvent]], skip: list[int]) -> None:
    """Tick one launch's clock events, each receive after its send.

    Ranks run from their cursors until a receive names a send its
    sender has not reached; the sender's reaching it re-queues the
    receiver.  A rank's first ``skip[rank]`` events tick without being
    kept (the retention bound).
    """
    starts, logs = window
    cursor = [0] * len(logs)
    stamps: dict[tuple[int, int], tuple[int, np.ndarray]] = {}
    waiting: dict[tuple[int, int], int] = {}
    ready = list(range(len(logs)))
    while ready:
        rank = ready.pop()
        events = logs[rank]
        vec = vectors[rank]
        i = cursor[rank]
        while i < len(events):
            ev = events[i]
            name = _TICKS.get(ev[0])
            if name is None:
                i += 1
                continue
            origin = None
            if name == "recv":
                sender, seq = ev[1], ev[6]
                stamp = stamps.pop((sender, seq), None)
                if stamp is not None:
                    origin = (sender, seq)
                    np.maximum(vec, stamp[1], out=vec)
                    lamport[rank] = max(lamport[rank], stamp[0])
                elif sender != rank and cursor[sender] <= seq - starts[sender] < len(logs[sender]):
                    waiting[(sender, seq)] = rank
                    break
            vec[rank] += 1
            lamport[rank] += 1
            keep = skip[rank] == 0
            if not keep:
                skip[rank] -= 1
            seq = starts[rank] + i if name == "send" else -1
            if keep or seq >= 0:
                snap = vec.copy()
                snap.setflags(write=False)
            if seq >= 0:
                stamps[(rank, seq)] = (lamport[rank], snap)
                if (rank, seq) in waiting:
                    ready.append(waiting.pop((rank, seq)))
            if keep:
                p2p = name in ("send", "recv")
                kept[rank].append(CausalEvent(
                    rank, name, ev[1] if p2p else -1, ev[2] if p2p else -1,
                    "" if p2p else ev[1], seq, origin, lamport[rank], snap))
            i += 1
        cursor[rank] = i


class CausalTracker:
    """Per-world-rank Lamport + vector clocks for one SPMD run.

    :func:`~repro.simmpi.launcher.run_spmd` hands it the launch's log
    window (:meth:`attach`); the clocks are computed from it in one pass
    on first use (a tracker reused by a later launch continues its
    clocks).
    ``events_limit`` bounds per-rank event retention: each rank keeps
    its last ``events_limit`` events, the clocks themselves always stay
    exact, and checks that need the full stream degrade gracefully
    (dropped sends make the matching checks skip, never misfire).
    ``None`` keeps everything — the right setting for the p <= 16 runs
    the checker targets.
    """

    def __init__(self, num_ranks: int, events_limit: int | None = None):
        if num_ranks < 1:
            raise ValueError(f"CausalTracker needs >= 1 rank, got {num_ranks}")
        self.num_ranks = num_ranks
        self.events_limit = events_limit
        self._windows: list[LogWindow] = []
        self._clocks: tuple | None = None

    def attach(self, window: LogWindow) -> None:
        """Add one launch's log window (clocks recompute on next use)."""
        self._windows.append(window)
        self._clocks = None

    def _computed(self) -> tuple[list[int], np.ndarray, list[list[CausalEvent]], int]:
        """(lamport, vectors, kept events, dropped count), computed once."""
        if self._clocks is None:
            n = self.num_ranks
            limit = self.events_limit
            ticks = [0] * n
            for window in self._windows:
                for rank, events in enumerate(window.events):
                    ticks[rank] += sum(1 for ev in events if ev[0] in _TICKS)
            skip = [0 if limit is None else max(0, t - limit) for t in ticks]
            dropped = sum(skip)
            lamport = [0] * n
            vectors = np.zeros((n, n), dtype=np.int64)
            kept: list[list[CausalEvent]] = [[] for _ in range(n)]
            for window in self._windows:
                _walk(window, lamport, vectors, kept, skip)
            self._clocks = (lamport, vectors, kept, dropped)
        return self._clocks

    # -- introspection ------------------------------------------------------

    def clock_state(self, rank: int) -> tuple[int, np.ndarray]:
        """(lamport, vector-copy) of one rank's final clocks."""
        lamport, vectors, _, _ = self._computed()
        return lamport[rank], vectors[rank].copy()

    def events_for(self, rank: int) -> list[CausalEvent]:
        """One rank's retained events, in program order."""
        return list(self._computed()[2][rank])

    @property
    def dropped_events(self) -> int:
        """Events beyond the retention bound across all ranks."""
        return self._computed()[3]

    # -- checking -----------------------------------------------------------

    def check(self, tracer=None) -> CausalReport:
        """Validate happens-before consistency of the derived stream.

        Four passes: (1) per-rank Lamport and vector-clock monotonicity;
        (2) every receive must dominate the clocks of the send it
        absorbed; (3) for fully-synchronizing collectives, every rank's
        round-exit vector must dominate every rank's round-entry vector;
        (4) with ``tracer`` (a :class:`~repro.simmpi.tracing.Tracer` or
        an object exposing one via ``.tracer``), every traced receive of
        this run must name, by identity, a traced send from its peer to
        it with its tag and size — the pairing
        :func:`~repro.obs.analysis.critical_path`, the health report and
        the Chrome flow arrows use.
        """
        _, _, kept, dropped = self._computed()
        violations: list[CausalViolation] = []
        events_checked = 0

        # Pass 1: per-rank monotonicity.
        for rank in range(self.num_ranks):
            prev: CausalEvent | None = None
            for ev in kept[rank]:
                events_checked += 1
                if prev is not None:
                    if ev.lamport <= prev.lamport:
                        violations.append(CausalViolation(
                            rank, ev.kind, ev.clock,
                            f"lamport clock not increasing "
                            f"({prev.lamport} -> {ev.lamport})"))
                    if not np.all(ev.vector >= prev.vector):
                        violations.append(CausalViolation(
                            rank, ev.kind, ev.clock,
                            "vector clock regressed between events"))
                    if ev.vector[rank] <= prev.vector[rank]:
                        violations.append(CausalViolation(
                            rank, ev.kind, ev.clock,
                            "own vector component did not advance"))
                prev = ev

        # Pass 2: sender dominance of every absorbed message.
        sends = {(ev.rank, ev.seq): ev
                 for evs in kept for ev in evs if ev.kind == "send"}
        messages_checked = 0
        for rank in range(self.num_ranks):
            for ev in kept[rank]:
                if ev.kind != "recv" or ev.origin is None:
                    continue
                send = sends.get(ev.origin)
                if send is None:
                    if not dropped:
                        violations.append(CausalViolation(
                            rank, "recv", ev.clock,
                            f"absorbed message from unknown send {ev.origin}"))
                    continue
                messages_checked += 1
                if ev.lamport <= send.lamport:
                    violations.append(CausalViolation(
                        rank, "recv", ev.clock,
                        f"lamport {ev.lamport} does not exceed sender's "
                        f"{send.lamport} (origin {ev.origin})"))
                if not np.all(ev.vector >= send.vector):
                    violations.append(CausalViolation(
                        rank, "recv", ev.clock,
                        f"vector clock does not dominate sender's "
                        f"(origin {ev.origin})"))

        # Pass 3: synchronizing collectives: every exit dominates every
        # entry of the same round.
        rounds_checked = 0
        if not dropped:
            rounds_checked = self._check_sync_rounds(kept, violations)

        # Pass 4: the tracer's receives pair with their sends by identity.
        matches_checked = 0
        if tracer is not None and not dropped:
            matches_checked = _check_pairs(tracer, kept, violations)

        return CausalReport(
            violations=tuple(violations),
            events_checked=events_checked,
            messages_checked=messages_checked,
            rounds_checked=rounds_checked,
            matches_checked=matches_checked,
            dropped_events=dropped,
        )

    def _check_sync_rounds(self, kept: list[list[CausalEvent]],
                           violations: list[CausalViolation]) -> int:
        """Entry/exit vector dominance for synchronizing collectives."""
        enters: dict[str, list[list[CausalEvent]]] = {}
        exits: dict[str, list[list[CausalEvent]]] = {}
        for rank in range(self.num_ranks):
            for ev in kept[rank]:
                if ev.kind == "coll_enter" and ev.label in SYNCHRONIZING_COLLECTIVES:
                    enters.setdefault(ev.label, [[] for _ in range(self.num_ranks)]
                                      )[rank].append(ev)
                elif ev.kind == "coll_exit" and ev.label in SYNCHRONIZING_COLLECTIVES:
                    exits.setdefault(ev.label, [[] for _ in range(self.num_ranks)]
                                     )[rank].append(ev)
        rounds = 0
        for label, per_rank_enters in enters.items():
            per_rank_exits = exits.get(label, [])
            participating = [r for r in range(self.num_ranks)
                             if per_rank_enters[r]]
            if len(participating) < 2:
                continue
            n_rounds = min(len(per_rank_enters[r]) for r in participating)
            if any(len(per_rank_exits[r]) < n_rounds for r in participating):
                continue
            for k in range(n_rounds):
                rounds += 1
                entry_max = np.maximum.reduce(
                    [per_rank_enters[r][k].vector for r in participating])
                exit_min = np.minimum.reduce(
                    [per_rank_exits[r][k].vector for r in participating])
                if not np.all(exit_min >= entry_max):
                    worst = min(participating,
                                key=lambda r: int(per_rank_exits[r][k].vector.sum()))
                    ev = per_rank_exits[worst][k]
                    violations.append(CausalViolation(
                        worst, f"coll_exit:{label}", ev.clock,
                        f"round {k} exit does not dominate all entries "
                        f"(not synchronizing)"))
        return rounds


def _check_pairs(tracer, kept: list[list[CausalEvent]],
                 violations: list[CausalViolation]) -> int:
    """Each traced receive of this run names a traced send from its peer
    to it with its tag and size; returns how many were checked.
    Receives of other launches sharing the tracer are skipped."""
    records = getattr(tracer, "tracer", tracer).snapshot()
    sends = {r.message: r for r in records if r.kind == "send"}
    absorbed = {ev.origin: ev for evs in kept for ev in evs
                if ev.kind == "recv" and ev.origin is not None}
    checked = 0
    for r in records:
        recv = absorbed.get(r.message) if r.kind == "recv" else None
        if recv is None:
            continue
        checked += 1
        send = sends.get(r.message)
        if send is None or (send.peer, send.tag, send.nbytes) != (r.rank, r.tag, r.nbytes):
            violations.append(CausalViolation(
                r.rank, "recv-match", recv.clock,
                f"traced recv of message {r.message} (tag {r.tag}, "
                f"{r.nbytes} B) does not match its send {send}"))
    return checked


__all__ = [
    "SYNCHRONIZING_COLLECTIVES",
    "CausalEvent",
    "CausalViolation",
    "CausalReport",
    "CausalTracker",
]
