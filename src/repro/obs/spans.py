"""Hierarchical spans: the step → phase → kernel timing tree.

A :class:`Span` is one named interval on one rank, carrying structured
attributes and child spans.  Each rank owns a :class:`SpanStack`; because
every span is opened and closed by its own rank's program, which never
runs on two threads at once under either simmpi engine, a stack needs no
locking — disjointness across ranks is structural (one stack per rank),
and nesting is enforced by the stack discipline itself.

Time comes from whatever callable the owner binds (a simmpi rank's
virtual clock, or ``time.perf_counter`` for sequential runs), so the
same span tree serves both executed and simulated timings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import ObservabilityError

_span_ids = itertools.count(1)


@dataclass
class Span:
    """One named interval on one rank, with children."""

    name: str
    rank: int
    t_start: float
    t_end: float | None = None
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    span_id: int = field(default_factory=lambda: next(_span_ids))
    parent_id: int | None = None

    @property
    def duration(self) -> float:
        """Span duration; raises if the span was never closed."""
        if self.t_end is None:
            raise ObservabilityError(f"span {self.name!r} is still open")
        return self.t_end - self.t_start

    @property
    def closed(self) -> bool:
        """Whether the span has ended."""
        return self.t_end is not None

    def walk(self):
        """Yield this span and all descendants, depth-first, pre-order."""
        yield self
        for c in self.children:
            yield from c.walk()

    def to_dict(self) -> dict:
        """JSON-friendly form (children by id, not nested — see exporters)."""
        return {
            "name": self.name,
            "rank": self.rank,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "duration": None if self.t_end is None else self.duration,
            "attrs": dict(self.attrs),
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }

    def __repr__(self) -> str:
        end = "open" if self.t_end is None else f"{self.duration:.6f}s"
        return f"Span({self.name!r}, rank={self.rank}, {end})"


class SpanStack:
    """Per-rank stack of open spans plus the finished roots.

    All operations happen on the owning rank's thread, so no locking is
    needed; the hub only reads ``roots`` after the run has joined.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self.roots: list[Span] = []
        self._open: list[Span] = []

    def open(self, name: str, now: float, attrs: dict | None = None) -> Span:
        """Open a span nested under the current innermost one."""
        parent = self._open[-1] if self._open else None
        span = Span(
            name=name,
            rank=self.rank,
            t_start=now,
            attrs=dict(attrs) if attrs else {},
            parent_id=None if parent is None else parent.span_id,
        )
        if parent is None:
            self.roots.append(span)
        else:
            parent.children.append(span)
        self._open.append(span)
        return span

    def close(self, now: float) -> Span:
        """Close the innermost open span."""
        if not self._open:
            raise ObservabilityError(
                f"rank {self.rank}: close() with no open span"
            )
        span = self._open.pop()
        if now < span.t_start:
            raise ObservabilityError(
                f"rank {self.rank}: span {span.name!r} would close at "
                f"{now} before its start {span.t_start}"
            )
        span.t_end = now
        return span

    def check_balanced(self) -> None:
        """Raise if any span is still open (called at run teardown)."""
        if self._open:
            names = [s.name for s in self._open]
            raise ObservabilityError(
                f"rank {self.rank}: {len(names)} unclosed span(s): {names}"
            )


def iter_spans(roots: list[Span]):
    """Depth-first iteration over a list of span trees."""
    for root in roots:
        yield from root.walk()


def spans_named(roots: list[Span], name: str) -> list[Span]:
    """All spans with ``name`` in tree order."""
    return [s for s in iter_spans(roots) if s.name == name]
