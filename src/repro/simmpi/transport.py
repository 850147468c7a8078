"""The thread-per-rank reference engine.

One free-running OS thread per rank: the implementation the
cross-engine tests compare the event scheduler of
:mod:`repro.simmpi.events` against, built only by
``run_spmd(engine="threads")``.  One lock guards the whole run, and
each rank waits on a :class:`threading.Condition` of its own over it.
A rank that finds no match records its ``(context, source, tag)`` and
waits; the ``post`` that delivers the match clears the record under the
same lock and wakes that rank alone.  When every live rank
waits, no message can arrive any more: the last one to block raises
:class:`~repro.errors.DeadlockError` at once and the others unwind --
the event engine's exact rule.  ``real_timeout`` bounds each wait.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.errors import SimMPIError
from repro.simmpi.datatypes import Message
from repro.simmpi.events import Runtime


class Engine(Runtime):
    """One thread-per-rank SPMD run: the launch protocol under one lock."""

    def __init__(self, num_ranks: int, real_timeout: float, fault_injector):
        super().__init__(num_ranks, real_timeout, fault_injector)
        # Reentrant: the deadlock path aborts while holding it.
        self._lock = threading.RLock()
        self._conds = [threading.Condition(self._lock) for _ in range(num_ranks)]
        #: Per rank, ``(context, source, tag)`` while it waits, else None.
        self._waiting: list[tuple[int, int, int] | None] = [None] * num_ranks
        self._idle = 0  # ranks with a waiting record
        self._alive = num_ranks

    def abort(self, exc: BaseException) -> None:
        """Propagate a fatal error to every rank; the first one wins."""
        with self._lock:
            if self._abort_exception is None:
                self._abort_exception = exc
            for cond in self._conds:
                cond.notify()

    def post(self, dest: int, message: Message) -> None:
        """Deliver a message and wake ``dest`` if it waits for it."""
        message = self._filter(dest, message)
        if message is None:
            return
        with self._lock:
            self.mailboxes[dest].deliver(message)
            want = self._waiting[dest]
            if (want is not None and message.context == want[0]
                    and message.matches(want[1], want[2])):
                self._waiting[dest] = None
                self._idle -= 1
                self._conds[dest].notify()

    def poll(self, rank: int, context: int, source: int, tag: int,
             consume: bool) -> Message | None:
        """The matching message if one is queued, else None; never blocks."""
        with self._lock:
            return self.mailboxes[rank].match(context, source, tag, consume)

    def wait_for_message(self, rank: int, context: int, source: int, tag: int,
                         consume: bool) -> Message:
        """Block until a matching message is queued for ``rank``."""
        self.fault_op(rank)
        mailbox = self.mailboxes[rank]
        waiting = self._waiting
        cond = self._conds[rank]
        deadline = time.monotonic() + self.real_timeout
        with self._lock:
            while True:
                self.check_abort()
                msg = mailbox.match(context, source, tag, consume)
                if msg is not None:
                    return msg
                if self._idle + 1 == self._alive:
                    raise self._deadlock(f"rank {rank} blocked last, waiting "
                                         f"for {(context, source, tag)}")
                waiting[rank] = (context, source, tag)
                self._idle += 1
                woken = cond.wait_for(
                    lambda: waiting[rank] is None
                    or self._abort_exception is not None,
                    deadline - time.monotonic(),
                )
                if waiting[rank] is not None:
                    waiting[rank] = None
                    self._idle -= 1
                if not woken:
                    exc = SimMPIError(
                        f"rank {rank} timed out after {self.real_timeout}s "
                        f"real time waiting for (source={source}, tag={tag})"
                    )
                    self.abort(exc)
                    raise exc

    def run(self, target: Callable[..., Any], comms, args: tuple,
            kwargs: dict) -> list[Any]:
        """Execute ``target(comms[r], *args, **kwargs)`` on one thread per
        rank; per-rank results in rank order, or the root cause."""
        returns: list[Any] = [None] * self.num_ranks

        def rank_main(rank: int) -> None:
            try:
                returns[rank] = target(comms[rank], *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - must propagate everything
                self._errors.append((rank, exc))
                self.abort(exc)
            finally:
                with self._lock:
                    self._alive -= 1
                    # Every rank left waits, and none is last to block.
                    if 0 < self._alive == self._idle:
                        self._deadlock("the last running rank returned")

        threads = [
            threading.Thread(target=rank_main, args=(r,),
                             name=f"simmpi-rank-{r}", daemon=True)
            for r in range(self.num_ranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=self.real_timeout + 10.0)
            if t.is_alive():
                exc = SimMPIError(f"thread {t.name} failed to finish (runaway rank)")
                self.abort(exc)
                raise exc
        self._raise_root_cause()
        return returns
