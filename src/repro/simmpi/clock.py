"""Per-rank virtual clocks."""

from __future__ import annotations

from repro.errors import SimMPIError


class VirtualClock:
    """A monotonically non-decreasing virtual timestamp for one rank,
    starting at 0.

    Computation advances it by modeled durations; message receipt merges
    it forward to the arrival time (never backward — merging enforces the
    happens-before relation between sender and receiver).
    """

    __slots__ = ("_time",)

    def __init__(self):
        self._time = 0.0

    @property
    def time(self) -> float:
        """Current virtual time in seconds."""
        return self._time

    def advance(self, duration: float) -> float:
        """Advance by a non-negative duration; returns the new time."""
        if duration < 0:
            raise SimMPIError(f"cannot advance clock by negative {duration}")
        self._time += duration
        return self._time

    def merge(self, other_time: float) -> float:
        """Move forward to ``other_time`` if it is later; returns the time."""
        if other_time > self._time:
            self._time = float(other_time)
        return self._time

    def __repr__(self) -> str:
        return f"VirtualClock({self._time:.6f}s)"
