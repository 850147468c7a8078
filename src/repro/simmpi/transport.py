"""Thread-safe mailbox transport and the shared runtime engine.

Each rank owns a :class:`Mailbox`; ``send`` delivers synchronously under
the mailbox lock (so there is no window where a message is neither at
the sender nor the receiver — a property the deadlock detector relies
on), and ``recv`` blocks on a condition variable until a matching
message exists.

Deadlock detection: when every live rank is blocked in a receive and no
delivery has happened between two consecutive poll ticks, the engine
aborts all ranks with :class:`~repro.errors.DeadlockError`.
"""

from __future__ import annotations

import threading
from collections import defaultdict

from repro.errors import DeadlockError, SimMPIError
from repro.simmpi.datatypes import Message

_POLL_INTERVAL = 0.05


class Mailbox:
    """Matching message store for one rank."""

    def __init__(self) -> None:
        self._messages: list[Message] = []
        self.condition = threading.Condition()

    def deliver(self, message: Message) -> None:
        """Append a message and wake any waiting receiver."""
        with self.condition:
            self._messages.append(message)
            self.condition.notify_all()

    def try_collect(self, context: int, source: int, tag: int) -> Message | None:
        """Pop the first matching message, FIFO order; None if absent.

        Caller must hold ``condition`` (or be the event engine's one
        running task, which nothing can interleave with).
        """
        for i, msg in enumerate(self._messages):
            if msg.context == context and msg.matches(source, tag):
                return self._messages.pop(i)
        return None


class RankCounters:
    """Traffic of one physical rank, over every communicator it holds
    (the world one and each ``split`` / ``dup`` of it)."""

    __slots__ = ("bytes_sent", "offnode_bytes_sent", "messages_sent",
                 "collective_counts", "algorithm_counts")

    def __init__(self) -> None:
        self.bytes_sent = 0
        #: Bytes pushed through the NIC (destination on another node) --
        #: the fabric-load share of ``bytes_sent``, and the quantity the
        #: adaptive collective layer is designed to shrink.
        self.offnode_bytes_sent = 0
        self.messages_sent = 0
        self.collective_counts: dict[str, int] = defaultdict(int)
        #: Executions per resolved algorithm, keyed "collective.algorithm"
        #: (what the adaptive layer actually chose, including explicit picks).
        self.algorithm_counts: dict[str, int] = defaultdict(int)


class Engine:
    """Shared state for one SPMD run: mailboxes, abort channel, detectors."""

    def __init__(self, num_ranks: int, real_timeout: float = 120.0,
                 fault_injector=None):
        if num_ranks < 1:
            raise SimMPIError(f"need at least one rank, got {num_ranks}")
        self.num_ranks = num_ranks
        self.real_timeout = real_timeout
        self.fault_injector = fault_injector
        self.mailboxes = [Mailbox() for _ in range(num_ranks)]
        self.counters = [RankCounters() for _ in range(num_ranks)]
        #: Context id -> the group's shared :class:`~repro.simmpi.selector.GroupPlan`.
        self.plans: dict = {}
        self._lock = threading.Lock()
        self._blocked: set[int] = set()
        self._alive = num_ranks
        self._delivery_epoch = 0
        self._abort_exception: BaseException | None = None
        self._next_context = 1  # context 0 is the world communicator

    # -- context ids for split communicators --------------------------------

    def allocate_context(self) -> int:
        """A fresh context id (collective callers coordinate externally)."""
        with self._lock:
            ctx = self._next_context
            self._next_context += 1
            return ctx

    # -- abort handling -------------------------------------------------------

    def abort(self, exc: BaseException) -> None:
        """Propagate a fatal error to every rank."""
        with self._lock:
            if self._abort_exception is None:
                self._abort_exception = exc
        for mailbox in self.mailboxes:
            with mailbox.condition:
                mailbox.condition.notify_all()

    @property
    def abort_exception(self) -> BaseException | None:
        """The root-cause exception that aborted the run, if any."""
        return self._abort_exception

    def check_abort(self) -> None:
        """Raise the stored abort exception in the calling rank, if any."""
        exc = self._abort_exception
        if exc is not None:
            raise SimMPIError(f"run aborted: {exc!r}") from exc

    def rank_finished(self) -> None:
        """A rank's main function returned; shrink the liveness count."""
        with self._lock:
            self._alive -= 1

    # -- fault injection -------------------------------------------------------

    def fault_op(self, world_rank: int) -> None:
        """Fault hook for one communication operation by ``world_rank``.

        May raise :class:`~repro.errors.RankFailedError` when an injected
        kill fires — out of a send or receive, so in-flight collectives
        abort instead of hanging.
        """
        if self.fault_injector is not None:
            self.fault_injector.on_comm_op(world_rank)

    # -- delivery -------------------------------------------------------------

    def post(self, dest: int, message: Message) -> None:
        """Deliver a message to ``dest``'s mailbox (unless a fault eats it)."""
        if not (0 <= dest < self.num_ranks):
            raise SimMPIError(f"destination rank {dest} outside 0..{self.num_ranks - 1}")
        if self.fault_injector is not None:
            message = self.fault_injector.filter_message(dest, message)
            if message is None:
                return  # dropped in flight; the deadlock detector backstops
        with self._lock:
            self._delivery_epoch += 1
        self.mailboxes[dest].deliver(message)

    def wait_for_message(
        self, rank: int, context: int, source: int, tag: int
    ) -> Message:
        """Block until a matching message is available for ``rank``."""
        self.fault_op(rank)
        mailbox = self.mailboxes[rank]
        waited = 0.0
        last_epoch = -1
        with self._lock:
            self._blocked.add(rank)
        try:
            with mailbox.condition:
                while True:
                    self.check_abort()
                    msg = mailbox.try_collect(context, source, tag)
                    if msg is not None:
                        return msg
                    mailbox.condition.wait(_POLL_INTERVAL)
                    waited += _POLL_INTERVAL
                    if waited >= self.real_timeout:
                        exc = SimMPIError(
                            f"rank {rank} timed out after {self.real_timeout}s real time "
                            f"waiting for (source={source}, tag={tag})"
                        )
                        self.abort(exc)
                        raise exc
                    epoch = self._deadlock_probe(rank)
                    if epoch is not None:
                        if epoch == last_epoch:
                            exc = DeadlockError(
                                f"all live ranks blocked in receive and no message "
                                f"delivered between polls (rank {rank} waiting for "
                                f"source={source}, tag={tag})"
                            )
                            self.abort(exc)
                            raise exc
                        last_epoch = epoch
                    else:
                        last_epoch = -1
        finally:
            with self._lock:
                self._blocked.discard(rank)

    def _deadlock_probe(self, rank: int) -> int | None:
        """If every live rank is blocked, return the delivery epoch.

        The caller compares epochs across two consecutive polls: a stable
        epoch with everyone blocked means no progress is possible.
        """
        with self._lock:
            if len(self._blocked) >= self._alive and self._alive > 0:
                return self._delivery_epoch
            return None
