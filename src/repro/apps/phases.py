"""Phase instrumentation: the paper's per-iteration timing protocol.

§VII.A: "We recorded iteration wall-clock times across the whole MPI
execution: the average times of assembly, preconditioning, and solver
phases with the total maximal iteration time.  We discarded timings from
the first 5 iterations [...] all the consecutive measurements were
averaged."

:class:`PhaseClock` times the three phases of one iteration (wall clock
for executed runs, or any externally supplied clock for simulated ones);
:class:`PhaseLog` applies the discard-and-average reduction.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ExperimentError

PHASE_NAMES = ("assembly", "preconditioner", "solve")
DEFAULT_DISCARD = 5  # iterations dropped to mask Open MPI startup artifacts


@dataclass
class IterationPhases:
    """Phase durations of one solver iteration (seconds)."""

    assembly: float = 0.0
    preconditioner: float = 0.0
    solve: float = 0.0
    other: float = 0.0

    @property
    def total(self) -> float:
        """Full iteration time."""
        return self.assembly + self.preconditioner + self.solve + self.other


class PhaseClock:
    """Accumulates phase durations for the current iteration.

    Default time source is :func:`time.perf_counter` (executed runs); a
    simmpi communicator's virtual clock can be injected for simulated
    runs: ``PhaseClock(now=lambda: comm.time)``.
    """

    def __init__(self, now=None):
        self._now = now if now is not None else time.perf_counter
        self.current = IterationPhases()

    @contextmanager
    def phase(self, name: str):
        """Time a block as one of the named phases."""
        if name not in PHASE_NAMES and name != "other":
            raise ExperimentError(
                f"unknown phase {name!r}; expected one of {PHASE_NAMES + ('other',)}"
            )
        start = self._now()
        yield
        elapsed = self._now() - start
        setattr(self.current, name, getattr(self.current, name) + elapsed)

    def finish_iteration(self) -> IterationPhases:
        """Return the completed iteration's phases and reset."""
        done = self.current
        self.current = IterationPhases()
        return done


@dataclass
class PhaseLog:
    """All iterations of one run, with the paper's reduction applied."""

    iterations: list[IterationPhases] = field(default_factory=list)
    discard: int = DEFAULT_DISCARD

    def append(self, phases: IterationPhases) -> None:
        """Record one finished iteration."""
        self.iterations.append(phases)

    @property
    def measured(self) -> list[IterationPhases]:
        """Iterations that survive the warm-up discard."""
        return self.iterations[self.discard:]

    def averages(self) -> IterationPhases:
        """Mean phase durations over the measured iterations."""
        kept = self.measured
        if not kept:
            raise ExperimentError(
                f"no measured iterations: {len(self.iterations)} recorded, "
                f"first {self.discard} discarded"
            )
        n = len(kept)
        return IterationPhases(
            assembly=sum(it.assembly for it in kept) / n,
            preconditioner=sum(it.preconditioner for it in kept) / n,
            solve=sum(it.solve for it in kept) / n,
            other=sum(it.other for it in kept) / n,
        )
