"""Event-driven simmpi engine: rank tasks on a discrete-event scheduler.

Every launch runs its rank programs as *cooperative* tasks under one
scheduler that is the only thing deciding who runs, switching contexts
exactly at blocking boundaries -- unmatched receives (point-to-point,
collective rounds, barrier, probe), fault-injection kill gates, and
abort cancellation.  At most one task is ever runnable; there is no
lock contention and no preemption, which is what lets one process
execute the paper's weak-scaling axis (p = 1, 8, 27, ... 1000) and a
p = 4096 collective micro-run in seconds.

Scheduling policy (a documented, stable contract -- regression-tested):

* runnable tasks execute in ascending ``(virtual time, rank)`` order,
  where the virtual time is the task's rank clock at the moment it
  became runnable (its blocking time for woken receivers, 0 at launch);
* ties on virtual time break on the lower rank;
* a task runs until its next blocking boundary and is never preempted;
* sends are eager (they never block) and delivery is synchronous at the
  ``post`` call, so a matching receiver becomes runnable immediately,
  queued behind the policy above.

Because every rank's op sequence and every message's virtual arrival
time are independent of *when* the scheduler runs things, results,
virtual clocks, and per-rank trace sequences are bit-identical to the
thread-per-rank reference engine of :mod:`repro.simmpi.transport`,
which speaks the same launch protocol (:class:`Runtime`) -- and,
unlike the reference, wildcard (``ANY_SOURCE``/``ANY_TAG``) matching
is deterministic run-to-run, since mailbox arrival order is fixed by
the policy instead of an OS race.

Contexts: CPython's standard library has no user-level stack
switching, so each task parks one OS thread as a coroutine stack -- the
scheduler serializes them so exactly one ever runs, and a switch is a
single lock handoff.  Stack size (:data:`STACK_BYTES`) and the pool cap
(:data:`POOL_MAX`) are constants: nothing in the ambient environment
changes how a run executes.

Failure semantics are the reference engine's: the first exception
aborts the run (:meth:`EventEngine.abort` is the scheduler-level
cancellation channel -- every blocked task is woken and raises), a
structural deadlock raises :class:`~repro.errors.DeadlockError` in the
last task to block (detected *exactly*, the instant no task can
proceed), and an injected :class:`~repro.errors.RankFailedError` fires
on the victim's own boundary call.
"""

from __future__ import annotations

import atexit
import heapq
import itertools
import os
import threading
from collections import defaultdict
from contextvars import Context
from typing import Any, Callable

from repro.errors import DeadlockError, SimMPIError
from repro.simmpi.datatypes import Message

#: Task lifecycle states.  RUNNABLE covers both "queued" and "currently
#: executing" -- the scheduler's single-runnable invariant makes the
#: distinction unobservable.
RUNNABLE, BLOCKED, DONE = "runnable", "blocked", "done"

#: Per-task stack reservation: 1 MiB (vs the 8 MiB OS default) keeps a
#: p = 4096 run at a few GiB of *virtual* reservation.
STACK_BYTES = 1024 * 1024

#: Cap on parked stacks retained process-wide between runs.
POOL_MAX = 4096


class Mailbox(list):
    """One rank's undelivered messages in arrival order: a plain FIFO
    (``deliver`` appends), serialized by the engine that owns it."""

    __slots__ = ()
    deliver = list.append

    def match(self, context: int, source: int, tag: int,
              consume: bool) -> Message | None:
        """The first message ``(context, source, tag)`` matches, FIFO
        order, removed when ``consume``; None if absent."""
        for i, msg in enumerate(self):
            if msg.context == context and msg.matches(source, tag):
                return self.pop(i) if consume else msg
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


class Runtime:
    """The launch protocol both engines speak.

    A :class:`~repro.simmpi.comm.Communicator` reaches its engine only
    through ``post``, ``wait_for_message`` (blocking), ``poll``
    (non-blocking) -- both consuming the match or leaving it queued --
    ``fault_op``, ``check_abort``, ``allocate_context``, ``plans`` and
    ``counters``; the launcher builds an engine and calls ``run``.  Each
    engine defines ``abort``, ``post``, ``poll``, ``wait_for_message``
    and ``run``: the event engine serializes its ranks and takes no
    lock, the thread-per-rank reference takes its one.
    """

    def __init__(self, num_ranks: int, real_timeout: float, fault_injector):
        if num_ranks < 1:
            raise SimMPIError(f"need at least one rank, got {num_ranks}")
        self.num_ranks = num_ranks
        self.real_timeout = real_timeout
        self.fault_injector = fault_injector
        self.mailboxes = [Mailbox() for _ in range(num_ranks)]
        self.counters = [RankCounters() for _ in range(num_ranks)]
        #: Context id -> the group's shared :class:`~repro.simmpi.selector.GroupPlan`.
        self.plans: dict = {}
        #: Context ids for split communicators; context 0 is the world
        #: communicator.  ``next`` on a count is atomic under the GIL.
        self._contexts = itertools.count(1)
        self._abort_exception: BaseException | None = None
        #: (rank, exception) of every rank program that raised.
        self._errors: list[tuple[int, BaseException]] = []

    def allocate_context(self) -> int:
        """A fresh context id (collective callers coordinate externally)."""
        return next(self._contexts)

    def check_abort(self) -> None:
        """Raise the stored abort exception in the calling rank, if any."""
        exc = self._abort_exception
        if exc is not None:
            raise SimMPIError(f"run aborted: {exc!r}") from exc

    def fault_op(self, world_rank: int) -> None:
        """Fault hook for one communication operation by ``world_rank``.

        May raise :class:`~repro.errors.RankFailedError` when an
        injected kill fires -- out of a send or receive, so in-flight
        collectives abort instead of hanging.
        """
        if self.fault_injector is not None:
            self.fault_injector.on_comm_op(world_rank)

    def _deadlock(self, detail: str) -> DeadlockError:
        """Abort the run: every live rank waits and no message is in
        flight.  ``detail`` names the rank that blocked last, which
        raises the returned error itself."""
        exc = DeadlockError("all live ranks blocked in receive and no "
                            f"message in flight ({detail})")
        self.abort(exc)
        return exc

    def _filter(self, dest: int, message: Message) -> Message | None:
        """``message`` as it reaches ``dest``; None if a fault drops it
        (exact deadlock detection backstops a receiver left waiting)."""
        if not (0 <= dest < self.num_ranks):
            raise SimMPIError(
                f"destination rank {dest} outside 0..{self.num_ranks - 1}"
            )
        if self.fault_injector is not None:
            return self.fault_injector.filter_message(dest, message)
        return message

    def _raise_root_cause(self) -> None:
        """Raise a failed run's root cause: the exception that aborted
        it, not the secondary :class:`~repro.errors.SimMPIError` other
        ranks unwound with.  Its traceback's rank frames hold this
        engine, so the engine lets go of every stored exception (and of
        ``root``: this frame joins the traceback) and a failed run is
        freed by reference counting, not left to the cyclic gc.
        """
        if not self._errors:
            return
        root = self._abort_exception
        if root is None:
            self._errors.sort(key=lambda pair: pair[0])
            root = self._errors[0][1]
        self._errors.clear()
        self._abort_exception = None
        try:
            raise root
        finally:
            del root


class _PooledStack:
    """A parked OS thread serving as a reusable coroutine stack.

    Thread creation is the engine's only expensive operation (each
    ``Thread.start`` is an OS round-trip that lands on the scheduler's
    critical path), so stacks outlive tasks *and* engines: after a task
    finishes, its stack re-parks in a process-wide pool and the next
    run's tasks resume it with one lock release.  This is the same
    context-reuse trick parallel simulators use to make rank counts
    cheap, and it is why a warm p = 512 launch costs milliseconds
    instead of a thread-spawn storm.
    """

    __slots__ = ("park", "thread", "job")

    def __init__(self) -> None:
        self.park = threading.Lock()
        self.park.acquire()  # parked state = locked; released to hand a job
        #: (engine, task) to execute on next wake; cleared once taken.
        self.job: tuple | None = None
        self.thread = threading.Thread(
            target=self._loop, name="simmpi-stack", daemon=True
        )

    def _loop(self) -> None:
        while True:
            self.park.acquire()
            if self.job is None:  # shutdown sentinel from _drain_pool
                return
            engine, task = self.job
            self.job = None
            engine._run_task(task)
            if not _pool_put(self):
                return


_pool_lock = threading.Lock()
_pool: list[_PooledStack] = []


def _drain_pool() -> None:
    """Wake and join every parked stack (atexit: a daemon thread parked
    across interpreter finalization confuses stream teardown)."""
    with _pool_lock:
        stacks = _pool[:]
        _pool.clear()
    for stack in stacks:
        stack.park.release()  # job is None -> the loop returns
    for stack in stacks:
        stack.thread.join(timeout=1.0)


atexit.register(_drain_pool)


def _reset_pool_after_fork() -> None:
    """Forget the pool in forked children.

    A fork clones the pool's bookkeeping but not its parked OS threads,
    so a child that popped an inherited entry would release a park lock
    no thread is waiting on and deadlock (seen under the sweep engine's
    ``ProcessPoolExecutor`` fan-out after an in-process run).  Children
    start with an empty pool and grow their own stacks.
    """
    global _pool_lock, _pool
    _pool_lock = threading.Lock()
    _pool = []


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool_after_fork)


def _pool_get() -> _PooledStack:
    """A parked stack (started with a :data:`STACK_BYTES` reservation if
    the pool is empty).

    ``threading.stack_size`` is process-global, so the set -> start ->
    restore sequence stays under the pool lock: two concurrent launches
    interleaving it would restore each other's value and leave every
    later thread in the process on the small stack.
    """
    with _pool_lock:
        if _pool:
            return _pool.pop()
        stack = _PooledStack()
        try:
            restore = threading.stack_size(STACK_BYTES)
        except (ValueError, RuntimeError):  # platform refuses the size
            restore = None
        try:
            stack.thread.start()
        finally:
            if restore is not None:
                try:
                    threading.stack_size(restore)
                except (ValueError, RuntimeError):  # pragma: no cover
                    pass
        return stack


def _pool_put(stack: _PooledStack) -> bool:
    """Re-park a stack; False (thread exits) once the pool is full."""
    with _pool_lock:
        if len(_pool) >= POOL_MAX:
            return False
        _pool.append(stack)
    return True


class Task:
    """One rank program's cooperative execution context."""

    __slots__ = ("rank", "clock", "state", "waiting", "result", "_stack")

    def __init__(self, rank: int, clock):
        self.rank = rank
        self.clock = clock
        self.state = RUNNABLE
        #: (context, source, tag) while blocked in a receive, else None.
        self.waiting: tuple[int, int, int] | None = None
        self.result: Any = None
        self._stack: _PooledStack | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task(rank={self.rank}, state={self.state})"


class EventEngine(Runtime):
    """One event-driven SPMD run: the :class:`Runtime` protocol on the
    cooperative scheduler."""

    def __init__(self, num_ranks: int, real_timeout: float, fault_injector):
        super().__init__(num_ranks, real_timeout, fault_injector)
        self._tasks: list[Task] | None = None
        self._runq: list[tuple[float, int]] = []
        self._finished = 0
        self._main_park = threading.Lock()
        self._bind: tuple | None = None

    # -- abort / cancellation -------------------------------------------------

    def abort(self, exc: BaseException) -> None:
        """Scheduler-level cancellation: every blocked task is woken.

        The first exception wins the abort channel; woken tasks observe
        it at their blocking boundary (:meth:`check_abort`) and unwind.
        Safe to call from the scheduler's own contexts; calling it from
        an unrelated thread is only done on the runaway path, where the
        run is being abandoned anyway.
        """
        if self._abort_exception is None:
            self._abort_exception = exc
        if self._tasks is not None:
            for task in self._tasks:
                if task.state == BLOCKED:
                    self._ready(task)

    # -- delivery -------------------------------------------------------------

    def post(self, dest: int, message: Message) -> None:
        """Deliver a message and wake a matching blocked receiver."""
        message = self._filter(dest, message)
        if message is None:
            return
        self.mailboxes[dest].deliver(message)
        task = self._tasks[dest] if self._tasks is not None else None
        if task is not None and task.state == BLOCKED and task.waiting is not None:
            context, source, tag = task.waiting
            if message.context == context and message.matches(source, tag):
                self._ready(task)

    def poll(self, rank: int, context: int, source: int, tag: int,
             consume: bool) -> Message | None:
        """The matching message if one is queued, else None; never
        blocks.  No lock: the calling task is the only thing running."""
        return self.mailboxes[rank].match(context, source, tag, consume)

    def wait_for_message(self, rank: int, context: int, source: int, tag: int,
                         consume: bool) -> Message:
        """Return a matching message, yielding to the scheduler if absent.

        This is *the* blocking boundary: every receive-shaped operation
        (point-to-point recv/probe, every collective round, barrier)
        funnels through here, so it is the one place a task suspends.
        """
        self.fault_op(rank)
        task = self._tasks[rank]
        mailbox = self.mailboxes[rank]
        while True:
            self.check_abort()
            msg = mailbox.match(context, source, tag, consume)
            if msg is not None:
                return msg
            if not self._runq:  # every other live task is blocked too
                raise self._deadlock(f"rank {rank} blocked last, waiting "
                                     f"for {(context, source, tag)}")
            task.waiting = (context, source, tag)
            task.state = BLOCKED
            self._yield_current(task)
            task.waiting = None

    # -- scheduler core --------------------------------------------------------

    def _ready(self, task: Task) -> None:
        """Queue a task at key (its clock now, its rank)."""
        task.state = RUNNABLE
        heapq.heappush(self._runq, (task.clock.time, task.rank))

    def _pick_next(self) -> Task | None:
        """The next task under the (time, rank) policy; None = run over.

        A task that is about to block with nothing runnable raises
        :class:`~repro.errors.DeadlockError` itself
        (:meth:`wait_for_message`); finding nothing runnable here means
        the last running task finished and left every other one blocked,
        so they are all aborted with it.
        """
        while True:
            while self._runq:
                _, rank = heapq.heappop(self._runq)
                task = self._tasks[rank]
                if task.state == RUNNABLE:
                    return task
            if self._finished >= self.num_ranks:
                return None
            if not any(t.state == BLOCKED for t in self._tasks):  # pragma: no cover
                raise SimMPIError(
                    "scheduler invariant violated: no runnable or blocked "
                    "task yet ranks are unfinished"
                )
            self._deadlock("the last running rank returned")

    def _yield_current(self, leaving: Task, park: bool = True) -> None:
        """Hand control to the next task (or back to the launcher).

        ``park`` is False only when ``leaving`` just finished: its stack
        unwinds instead of suspending.
        """
        self._switch(leaving, self._pick_next(), park)

    def _switch(self, leaving: Task, nxt: Task | None, park: bool) -> None:
        """Context transfer; returns when ``leaving`` is resumed.

        The handoff is a lock release plus a park on the leaving task's
        own lock.  The park is *unconditional* on the blocking path: the
        woken task may deliver a message and re-ready ``leaving`` before
        ``leaving`` reaches its park, so checking ``leaving.state`` here
        would race -- instead the binary-lock protocol absorbs a
        wake-before-park (the release leaves the lock open; the late
        acquire sails through).  The only overlap between two stacks is
        that park, which touches no scheduler state.
        """
        if nxt is None:
            self._main_park.release()
        else:
            self._wake_thread(nxt)
        if park:
            leaving._stack.park.acquire()

    def _wake_thread(self, task: Task) -> None:
        """Resume the task's stack, binding a pooled one on first run."""
        if task._stack is not None:
            task._stack.park.release()
            return
        stack = _pool_get()
        task._stack = stack
        stack.job = (self, task)
        stack.park.release()

    # -- task body -------------------------------------------------------------

    def _run_task(self, task: Task) -> None:
        """Run one rank program to completion, then dispatch onward.

        Any exception is recorded and aborts the run (cancelling blocked
        peers); :meth:`run` re-raises the root cause.  The body runs in a fresh
        :class:`contextvars.Context`: pooled stacks outlive tasks, so
        context variables (the ambient view of
        :func:`repro.obs.core.current`) set by one rank never reach
        another rank or a later run on the same stack.
        """
        target, comms, args, kwargs = self._bind
        try:
            task.result = Context().run(
                target, comms[task.rank], *args, **kwargs
            )
        except BaseException as exc:  # noqa: BLE001 - must propagate everything
            self._errors.append((task.rank, exc))
            self.abort(exc)
        finally:
            task.state = DONE
            self._finished += 1
            self._yield_current(task, park=False)

    # -- entry point -----------------------------------------------------------

    def run(self, target: Callable[..., Any], comms, args: tuple,
            kwargs: dict) -> list[Any]:
        """Execute ``target(comms[r], *args, **kwargs)`` for every rank.

        Returns per-rank results in rank order, or raises the run's
        root-cause exception (first error / deadlock / injected fault).
        One engine instance drives one run.
        """
        if self._tasks is not None:
            raise SimMPIError("an EventEngine instance drives exactly one run")
        if len(comms) != self.num_ranks:
            raise SimMPIError(
                f"expected {self.num_ranks} communicators, got {len(comms)}"
            )
        self._bind = (target, comms, args, kwargs)
        self._tasks = [Task(r, comms[r].clock) for r in range(self.num_ranks)]
        for task in self._tasks:
            self._ready(task)
        first = self._pick_next()
        self._main_park.acquire()  # parked state for the launcher
        self._wake_thread(first)
        if not self._main_park.acquire(timeout=self.real_timeout + 10.0):
            exc = SimMPIError(
                f"event scheduler stalled for {self.real_timeout + 10.0:.0f}s "
                "real time (runaway rank program)"
            )
            self.abort(exc)
            raise exc
        # The run is over; its comms hold this engine.
        self._bind = None
        self._raise_root_cause()
        return [task.result for task in self._tasks]
