"""SPMD launcher: the simulated ``mpiexec``.

Hands each rank a :class:`Communicator`, runs the rank programs on the
discrete-event scheduler of :mod:`repro.simmpi.events` -- cooperative
rank tasks, deterministic ``(virtual time, rank)`` ordering, exact
deadlock detection, and the scale headroom for the paper's p = 1000
axis and beyond -- and collects return values, clocks and traces.

The free-running thread-per-rank engine of :mod:`repro.simmpi.transport`
is kept as the tests' reference implementation: it is reachable only
through the explicit ``run_spmd(engine="threads")`` keyword, never
through configuration or the environment, and produces bit-identical
results, virtual clocks, and per-rank trace sequences for deterministic
rank programs.

The launch pathologies the paper hit (ellipse's ``mpiexec`` could not
initialize more than 512 remote daemons, lagrange's IB adapters capped
the data volume at 343 ranks) are not executed here: they are one
analytic fact, :func:`~repro.platforms.limits.rank_ceiling_reason`, that
every artifact reads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import LaunchError, SimMPIError
from repro.network.model import GIGABIT_ETHERNET, NetworkModel
from repro.network.topology import ClusterTopology
from repro.simmpi.clock import VirtualClock
from repro.simmpi.comm import Communicator
from repro.simmpi.events import EventEngine
from repro.simmpi.recording import ScheduleRecording
from repro.simmpi.selector import GroupPlan
from repro.simmpi.tracing import UNSUPPORTED, EventLog, Tracer
from repro.simmpi.transport import Engine


@dataclass
class SPMDResult:
    """Everything a finished SPMD run exposes."""

    num_ranks: int
    returns: list[Any]
    clocks: list[float]
    tracer: Tracer
    bytes_sent: list[int] = field(default_factory=list)
    messages_sent: list[int] = field(default_factory=list)
    engine: str = "events"
    #: Executions per resolved collective algorithm summed over ranks,
    #: keyed ``"collective.algorithm"`` (cross-checks a recording).
    algorithm_counts: dict[str, int] = field(default_factory=dict)
    #: The captured :class:`~repro.simmpi.recording.ScheduleRecording`
    #: when launched with ``record_schedule=True``; None when recording
    #: was off or the rank program touched an unrecordable feature.
    recording: Any = None
    #: The :class:`~repro.obs.causal.CausalTracker` holding the run's
    #: Lamport/vector clocks when launched with causal tracing; None
    #: otherwise.
    causal: Any = None

    @property
    def max_time(self) -> float:
        """The run's makespan: the latest rank clock."""
        return max(self.clocks)

    @property
    def total_bytes(self) -> int:
        """Total bytes sent across all ranks."""
        return sum(self.bytes_sent)


def default_topology(num_ranks: int) -> ClusterTopology:
    """A generic single-switch cluster for tests: 4-core 1 GbE nodes."""
    cores = 4
    nodes = max(1, -(-num_ranks // cores))
    return ClusterTopology(nodes, cores, NetworkModel(GIGABIT_ETHERNET))


def run_spmd(
    target: Callable[..., Any],
    num_ranks: int,
    topology: ClusterTopology | None = None,
    args: tuple = (),
    kwargs: dict | None = None,
    trace: bool = False,
    real_timeout: float = 120.0,
    fault_injector=None,
    observability=None,
    engine: str = "events",
    record_schedule: bool = False,
    causal: Any = None,
) -> SPMDResult:
    """Run ``target(comm, *args, **kwargs)`` on ``num_ranks`` ranks.

    Parameters mirror what a batch system controls: the ``topology``
    places ranks on nodes (block placement).  A ``fault_injector``
    (:class:`~repro.resilience.faults.FaultInjector`) hooks the transport to
    kill ranks and drop/delay messages mid-run — a killed rank's
    :class:`~repro.errors.RankFailedError` is re-raised here as the
    run's root cause.

    Every observer reads one :class:`~repro.simmpi.tracing.EventLog`,
    built only when one is attached.  ``trace=True`` or an
    ``observability`` hub (:class:`repro.obs.core.Observability`) appends to
    the tracer's log and folds the launch into the hub's ``simmpi_*``
    counters; span instrumentation inside ``target`` still needs the
    hub passed through ``args``/``kwargs``.  ``record_schedule=True``
    projects the launch onto ``result.recording`` (None if the program
    used features replay cannot represent, fault injection included —
    see ``docs/replay.md``).  ``causal=True`` builds a fresh
    :class:`~repro.obs.causal.CausalTracker`, an existing tracker is
    reused; it rides back as ``result.causal`` (and on the hub).

    ``engine`` is ``"events"`` (the cooperative discrete-event
    scheduler) everywhere outside the test suite; ``"threads"`` runs the
    thread-per-rank reference engine the cross-engine tests compare
    against.  Results are bit-identical either way.

    Raises the first rank exception after aborting the others.
    """
    if num_ranks < 1:
        raise LaunchError(f"cannot launch {num_ranks} ranks")
    if engine not in ("events", "threads"):
        raise LaunchError(f"engine {engine!r} is not 'events' or 'threads'")
    if kwargs is None:
        kwargs = {}
    if topology is None:
        topology = default_topology(num_ranks)
    if not topology.supports(num_ranks):
        raise LaunchError(
            f"{num_ranks} ranks exceed the machine's {topology.total_cores} cores"
        )

    engine_cls = EventEngine if engine == "events" else Engine
    runtime = engine_cls(num_ranks, real_timeout=real_timeout,
                         fault_injector=fault_injector)
    if observability is not None:
        tracer = observability.tracer
    else:
        tracer = Tracer(enabled=trace)
    tracker = causal if not isinstance(causal, bool) and causal is not None else None
    if causal is True:
        from repro.obs.causal import CausalTracker

        tracker = CausalTracker(num_ranks)
    if observability is not None and tracker is not None:
        observability.causal = tracker
    if tracer.enabled:
        log = tracer.log
    elif record_schedule or tracker is not None:
        log = EventLog()
    else:
        log = None
    if log is not None:
        marks = log.marks(num_ranks)
        if fault_injector is not None:
            log.rank(0).append((UNSUPPORTED, "fault injection"))
    runtime.plans[0] = GroupPlan(topology, range(num_ranks))
    comms = [
        Communicator(
            engine=runtime,
            rank=r,
            size=num_ranks,
            topology=topology,
            clock=VirtualClock(),
            log=None if log is None else log.rank(r),
        )
        for r in range(num_ranks)
    ]

    try:
        if engine == "events":
            returns = runtime.run(target, comms, args=args, kwargs=kwargs)
        else:
            returns = _run_threaded(runtime, target, comms, args, kwargs, real_timeout)
    finally:
        # A failed launch still reports what it did to its observers.
        if log is not None:
            window = log.since(marks)
            if tracker is not None:
                tracker.attach(window)
            if observability is not None and tracer.enabled:
                observability.absorb_log(window)

    algorithm_counts: dict[str, int] = {}
    for comm in comms:
        for key, count in comm.algorithm_counts.items():
            algorithm_counts[key] = algorithm_counts.get(key, 0) + count

    return SPMDResult(
        num_ranks=num_ranks,
        returns=returns,
        clocks=[c.clock.time for c in comms],
        tracer=tracer,
        bytes_sent=[c.bytes_sent for c in comms],
        messages_sent=[c.messages_sent for c in comms],
        engine=engine,
        algorithm_counts=algorithm_counts,
        recording=(ScheduleRecording.from_log(window.events)
                   if record_schedule else None),
        causal=tracker,
    )


def _run_threaded(
    runtime: Engine, target, comms, args, kwargs, real_timeout: float
) -> list[Any]:
    """The legacy engine: one free-running OS thread per rank."""
    num_ranks = runtime.num_ranks
    returns: list[Any] = [None] * num_ranks
    errors: list[tuple[int, BaseException]] = []
    errors_lock = threading.Lock()

    def _rank_main(rank: int) -> None:
        try:
            returns[rank] = target(comms[rank], *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - must propagate everything
            with errors_lock:
                errors.append((rank, exc))
            runtime.abort(exc)
        finally:
            runtime.rank_finished()

    threads = [
        threading.Thread(target=_rank_main, args=(r,), name=f"simmpi-rank-{r}", daemon=True)
        for r in range(num_ranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=real_timeout + 10.0)
        if t.is_alive():
            exc = SimMPIError(f"thread {t.name} failed to finish (runaway rank)")
            runtime.abort(exc)
            raise exc

    if errors:
        # Re-raise the root cause (the exception that triggered the abort),
        # not the secondary SimMPIError other ranks saw while unwinding, so
        # callers can discriminate injected failures (RankFailedError etc.).
        # The rank frames in its traceback hold ``errors`` and the runtime,
        # so let go of both (and of ``root``: this frame joins its
        # traceback) and a failed launch is freed by reference counting.
        root = runtime.abort_exception
        if root is None:
            errors.sort(key=lambda pair: pair[0])
            root = errors[0][1]
        errors.clear()
        runtime._abort_exception = None
        try:
            raise root
        finally:
            del root
    return returns
