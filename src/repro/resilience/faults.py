"""Deterministic fault plans and the injector that executes them.

The paper's EC2 experience (§VII.B) is dominated by partial spot
fulfillment and reclaims; this module turns those into *executable*
failures inside the simmpi runtime:

* a :class:`FaultPlan` is a seeded, fully deterministic list of
  :class:`FaultEvent` — rank kills, message drops/delays, spot reclaims
  — so every failing run can be replayed exactly;
* :meth:`FaultPlan.from_spot_market` derives rank-kill events from the
  *same* seeded :class:`~repro.cloud.spot.SpotMarket` reclaim sampler
  that drives the billing-level interruption accounting, keeping one
  source of truth between dollars and dead ranks;
* a :class:`FaultInjector` is installed into the simmpi engine (a
  :class:`~repro.simmpi.events.Runtime`) and fires the events: a killed
  rank raises :class:`~repro.errors.RankFailedError` out of its next
  communication operation (or at the time-step boundary), dropped
  messages vanish before delivery, delayed messages arrive late in
  virtual time.

Kill triggers compose three ways: ``at_step`` (fires at the time-step
boundary, where the resilient runner calls :meth:`FaultInjector.begin_step`),
``at_phase`` (fires when the victim enters a named phase the
``occurrence``-th time), and ``after_ops`` (fires once the victim has
performed that many communication operations — this is how a rank dies
*mid*-CG, between two allreduces).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from repro.errors import RankFailedError, ResilienceError

KILL_KINDS = ("rank_kill", "spot_reclaim")
MESSAGE_KINDS = ("message_drop", "message_delay")
VALID_KINDS = KILL_KINDS + MESSAGE_KINDS


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``rank`` is the victim's world rank for kills, the destination world
    rank for message faults (``None`` = any destination).  Exactly one
    of ``at_step`` / ``at_phase`` / ``after_ops`` must be set for kills;
    message faults are armed immediately (or from ``at_step`` on) and
    affect the next ``count`` matching messages.
    """

    kind: str
    rank: int | None = None
    at_step: int | None = None
    at_phase: str | None = None
    occurrence: int = 1
    after_ops: int | None = None
    count: int = 1
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ResilienceError(
                f"unknown fault kind {self.kind!r}; expected one of {VALID_KINDS}"
            )
        if self.kind in KILL_KINDS:
            triggers = [
                t for t in (self.at_step, self.at_phase, self.after_ops)
                if t is not None
            ]
            if self.rank is None or len(triggers) != 1:
                raise ResilienceError(
                    f"{self.kind} events need a victim rank and exactly one "
                    f"trigger (at_step | at_phase | after_ops), got {self}"
                )
        if self.kind == "message_delay" and self.delay_seconds <= 0:
            raise ResilienceError("message_delay needs delay_seconds > 0")
        if self.count < 1:
            raise ResilienceError(f"count must be >= 1, got {self.count}")
        if self.occurrence < 1:
            raise ResilienceError(f"occurrence must be >= 1, got {self.occurrence}")


class FaultPlan:
    """An ordered, deterministic collection of fault events."""

    def __init__(self, events: list[FaultEvent] | None = None):
        self.events = list(events or [])
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise ResilienceError(f"not a FaultEvent: {event!r}")

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def from_spot_market(
        cls,
        market,
        num_steps: int,
        step_hours: float,
        spot_ranks: list[int],
        seed: int = 0,
    ) -> "FaultPlan":
        """Derive spot-reclaim kills from a seeded market trajectory.

        Uses :meth:`repro.cloud.spot.SpotMarket.reclaim_sampler` — the
        *same* sampler :meth:`CloudCluster.run_with_interruptions` draws
        from — so the billing-level outcome and the injected rank
        failures agree round for round.  ``spot_ranks[i]`` is the world
        rank hosted on spot slot ``i``; a reclaimed slot's rank is
        killed at that step boundary and leaves the spot pool (the
        paper's replacement hosts are on-demand, hence unreclaimable).
        """
        if num_steps < 1:
            raise ResilienceError(f"num_steps must be >= 1, got {num_steps}")
        sampler = market.reclaim_sampler(len(spot_ranks), step_hours, seed)
        events: list[FaultEvent] = []
        for step in range(num_steps):
            for slot in sampler.next_round():
                events.append(
                    FaultEvent(
                        kind="spot_reclaim", rank=spot_ranks[slot], at_step=step
                    )
                )
        return cls(events)


class _ArmedEvent:
    """Mutable firing state for one plan event (thread-shared)."""

    __slots__ = ("event", "fired", "remaining", "active")

    def __init__(self, event: FaultEvent):
        self.event = event
        self.fired = False
        self.remaining = event.count
        # Message faults with no at_step gate are armed from the start.
        self.active = event.kind in MESSAGE_KINDS and event.at_step is None


class FaultInjector:
    """Executes a :class:`FaultPlan` against a running simmpi engine.

    Thread-safe: one injector is shared by every rank thread of a run,
    and survives across restart attempts so one-shot events never fire
    twice.  After a failed attempt, :meth:`reset_liveness` clears the
    dead set (the replacement host takes over the failed rank id) while
    keeping consumed events consumed.
    """

    def __init__(self, plan: FaultPlan | None = None):
        self.plan = plan or FaultPlan()
        self._armed = [_ArmedEvent(e) for e in self.plan.events]
        self._lock = threading.Lock()
        self._dead: dict[int, str] = {}  # world rank -> fault kind
        self._op_counts: dict[int, int] = {}
        self._phase_counts: dict[tuple[int, str], int] = {}
        self._activated_steps: set[int] = set()
        self._current_step: int | None = None
        self.kills = 0
        self.messages_dropped = 0
        self.messages_delayed = 0

    # -- liveness -----------------------------------------------------------

    def reset_liveness(self) -> None:
        """Revive all ranks for a restart attempt (replacements joined)."""
        with self._lock:
            self._dead.clear()
            self._op_counts.clear()
            self._phase_counts.clear()

    def _kill(self, rank: int, armed: _ArmedEvent, phase: str | None = None):
        armed.fired = True
        self._dead[rank] = armed.event.kind
        self.kills += 1
        return RankFailedError(
            f"rank {rank} killed by injected {armed.event.kind} "
            f"(step={self._current_step}, phase={phase})",
            rank=rank,
            step=self._current_step,
            phase=phase,
            kind=armed.event.kind,
        )

    def _raise_if_dead(self, rank: int, phase: str | None = None) -> None:
        if rank in self._dead:
            raise RankFailedError(
                f"rank {rank} is dead (reclaimed instance)",
                rank=rank, step=self._current_step, phase=phase,
                kind=self._dead[rank],
            )

    # -- hooks called from the runtime and the resilient runner --------------

    def begin_step(self, step: int, world_rank: int) -> None:
        """Time-step boundary: activate step-gated events, then die if told.

        Every rank calls this at each boundary; activation is idempotent
        per step, and an ``at_step`` kill fires only on the *victim's
        own* boundary call — never as a side effect of another rank
        racing ahead.  That makes the kill site deterministic: the
        victim has finished the previous step (and rank 0 has persisted
        its record and checkpoint) before it dies.
        """
        with self._lock:
            if step not in self._activated_steps:
                self._activated_steps.add(step)
                self._current_step = step
                for armed in self._armed:
                    e = armed.event
                    if armed.fired or e.at_step != step:
                        continue
                    if e.kind in MESSAGE_KINDS:
                        armed.active = True
            for armed in self._armed:
                e = armed.event
                if (
                    not armed.fired
                    and e.kind in KILL_KINDS
                    and e.at_step is not None
                    and e.at_step <= step
                    and e.rank == world_rank
                ):
                    # One reclaim round may take out several instances:
                    # consume every kill scheduled for the same boundary
                    # now, so the batch costs a single restart.
                    for other in self._armed:
                        oe = other.event
                        if (
                            other is not armed
                            and not other.fired
                            and oe.kind in KILL_KINDS
                            and oe.at_step == e.at_step
                        ):
                            other.fired = True
                            self._dead[oe.rank] = oe.kind
                            self.kills += 1
                    raise self._kill(world_rank, armed)
            self._raise_if_dead(world_rank)

    def enter_phase(self, world_rank: int, label: str) -> None:
        """Phase boundary: fire ``at_phase`` kills targeting this rank."""
        with self._lock:
            key = (world_rank, label)
            self._phase_counts[key] = self._phase_counts.get(key, 0) + 1
            for armed in self._armed:
                e = armed.event
                if (
                    not armed.fired
                    and e.kind in KILL_KINDS
                    and e.at_phase == label
                    and e.rank == world_rank
                    and self._phase_counts[key] >= e.occurrence
                ):
                    raise self._kill(world_rank, armed, phase=label)
            self._raise_if_dead(world_rank, phase=label)

    def on_comm_op(self, world_rank: int) -> None:
        """Per-communication-op hook: fire ``after_ops`` kills, enforce death.

        Called by the engine on every send and receive, which is what
        lets a kill land *inside* a CG iteration, between the halo
        exchange and the fused allreduce.
        """
        with self._lock:
            self._op_counts[world_rank] = self._op_counts.get(world_rank, 0) + 1
            ops = self._op_counts[world_rank]
            for armed in self._armed:
                e = armed.event
                if (
                    not armed.fired
                    and e.kind in KILL_KINDS
                    and e.after_ops is not None
                    and e.rank == world_rank
                    and ops >= e.after_ops
                ):
                    raise self._kill(world_rank, armed)
            self._raise_if_dead(world_rank)

    def filter_message(self, dest: int, message):
        """Transport hook: drop (return None) or delay a message."""
        with self._lock:
            for armed in self._armed:
                e = armed.event
                if armed.fired or not armed.active or e.kind not in MESSAGE_KINDS:
                    continue
                if e.rank is not None and e.rank != dest:
                    continue
                armed.remaining -= 1
                if armed.remaining <= 0:
                    armed.fired = True
                if e.kind == "message_drop":
                    self.messages_dropped += 1
                    return None
                self.messages_delayed += 1
                return replace(
                    message, arrival_time=message.arrival_time + e.delay_seconds
                )
            return message
