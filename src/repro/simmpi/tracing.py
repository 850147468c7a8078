"""The event log: what each rank did, when (virtual time), how many bytes.

An observed launch appends to one per-rank :class:`EventLog`: the
:class:`~repro.simmpi.comm.Communicator` writes one tuple per send,
absorbed receive, compute charge, collective entry / exit,
resolved algorithm and unrecordable feature.  Nothing else observes a
message, so the log is the single source of communication truth and
every observer is a view of it: :class:`Tracer` records, a
:class:`~repro.simmpi.recording.ScheduleRecording`, a
:class:`~repro.obs.causal.CausalTracker`'s clocks and the hub's
``simmpi_*`` counters.

A message is named by ``(sender world rank, seq)``, ``seq`` being the
index of its send in the sender's list -- unique also when several
launches share one tracer's log -- so receives pair with sends by
identity, never by ``(source, destination, tag)`` order.

There is no lock: each rank appends only to its *own* list (atomic
under CPython), and views merge the lists rank-major -- deterministic
and engine-independent.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

#: Event kinds: the first element of every log tuple.  Layouts --
#: ``seq`` of a send is its own index in the rank's list:
SEND = "s"  # (SEND, peer, tag, nbytes, t_start, t_end)
RECV = "r"  # (RECV, peer, tag, nbytes, t_start, t_end, seq, user)
COMPUTE = "c"  # (COMPUTE, seconds, label, t_start, t_end)
COLLECTIVE = "k"  # (COLLECTIVE, name, t_start, t_end), at the round's exit
ENTER = "e"  # (ENTER, name), at the round's entry
ALGORITHM = "a"  # (ALGORITHM, collective, algorithm, nbytes, auto, segmentable)
UNSUPPORTED = "u"  # (UNSUPPORTED, reason): not representable in a recording


class TraceRecord(NamedTuple):
    """One user-visible event on one rank.

    ``rank`` and ``peer`` are world ranks, also for events on a
    ``split()`` / ``dup()`` communicator: a record belongs to the
    physical rank that produced it.  ``seq`` is the message's sequence
    number on a send or receive (-1 otherwise); see :attr:`message`.
    """

    rank: int
    kind: str  # "send" | "recv" | "compute" | "collective"
    t_start: float
    t_end: float
    nbytes: int = 0
    peer: int = -1
    tag: int = 0
    label: str = ""
    seq: int = -1

    @property
    def duration(self) -> float:
        """Virtual duration of the event."""
        return self.t_end - self.t_start

    @property
    def message(self) -> tuple[int, int] | None:
        """The ``(sender, seq)`` identity of the message a send or
        receive moved; None for other kinds and unnumbered records."""
        if self.seq < 0 or self.kind not in ("send", "recv"):
            return None
        return (self.rank if self.kind == "send" else self.peer, self.seq)


class LogWindow(NamedTuple):
    """The events one launch appended: rank ``r``'s are ``events[r]``,
    the first of them at index ``starts[r]`` of that rank's log."""

    starts: tuple[int, ...]
    events: tuple[list[tuple], ...]


class EventLog:
    """Per-rank append-only event lists (see the module docstring)."""

    __slots__ = ("_ranks",)

    def __init__(self) -> None:
        self._ranks: dict[int, list[tuple]] = {}

    def rank(self, rank: int) -> list[tuple]:
        """The rank's event list, created on first use; append-only."""
        return self._ranks.setdefault(rank, [])

    def ranks(self) -> list[int]:
        """Ranks that own a list, ascending."""
        return sorted(self._ranks)

    def __len__(self) -> int:
        """Events across every rank."""
        return sum(map(len, self._ranks.values()))

    def marks(self, num_ranks: int) -> tuple[int, ...]:
        """Current lengths of ranks ``0 .. num_ranks - 1``: a window start."""
        return tuple(len(self.rank(r)) for r in range(num_ranks))

    def since(self, marks: Sequence[int]) -> LogWindow:
        """What ranks ``0 .. len(marks) - 1`` appended after :meth:`marks`."""
        return LogWindow(
            tuple(marks),
            tuple(self.rank(r)[start:] for r, start in enumerate(marks)),
        )


def trace_records(rank: int, events: Sequence[tuple]) -> Iterator[TraceRecord]:
    """The user-visible records among one rank's events, in log order.

    A send's ``seq`` is its position in ``events``: pass the rank's
    whole list where identities matter.  Receives inside collectives,
    round entries, algorithm decisions and unsupported-feature marks
    are log-only.
    """
    new = tuple.__new__  # positional fields, without the keyword __new__
    for i, ev in enumerate(events):
        kind = ev[0]
        if kind == SEND:
            yield new(TraceRecord, (rank, "send", ev[4], ev[5], ev[3], ev[1], ev[2], "", i))
        elif kind == RECV:
            if ev[7]:
                yield new(TraceRecord,
                          (rank, "recv", ev[4], ev[5], ev[3], ev[1], ev[2], "", ev[6]))
        elif kind == COMPUTE:
            yield new(TraceRecord, (rank, "compute", ev[3], ev[4], 0, -1, 0, ev[2], -1))
        elif kind == COLLECTIVE:
            yield new(TraceRecord, (rank, "collective", ev[2], ev[3], 0, -1, 0, ev[1], -1))


class Tracer:
    """The user-visible trace of one or more SPMD launches.

    An enabled tracer owns the :class:`EventLog` its launches append to
    (``run_spmd(trace=True)`` or an observability hub); its records are
    a view of that log.  A launch appends nothing to a disabled tracer.
    """

    __slots__ = ("enabled", "log", "_view")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.log = EventLog()
        #: (log length, records) of the last :meth:`snapshot`.
        self._view: tuple[int, tuple[TraceRecord, ...]] = (0, ())

    def __repr__(self) -> str:
        return f"Tracer(enabled={self.enabled}, records={len(self.records)})"

    @property
    def records(self) -> list[TraceRecord]:
        """All records, rank-major (rank order, per-rank log order)."""
        return list(self.snapshot())

    def snapshot(self) -> tuple[TraceRecord, ...]:
        """An immutable rank-major view of the log, rebuilt only after
        the log grew (the log is append-only)."""
        log = self.log
        size = len(log)
        if self._view[0] != size:
            self._view = (size, tuple(
                record for rank in log.ranks() for record in trace_records(rank, log.rank(rank))
            ))
        return self._view[1]
