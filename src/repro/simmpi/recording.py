"""Schedule recording: capture a run's communication schedule once.

The platform-comparison artifacts re-run identical numerics per
platform when only the virtual clock differs — the FEM/CG work is
invariant across the EC2/grid/on-premises models.  This module is the
"semantics" half of the record/replay split: a ``record_schedule=True``
launch projects its :class:`~repro.simmpi.tracing.EventLog` window
(:meth:`ScheduleRecording.from_log`) onto, per rank and in execution
order,

* every **send** (peer, tag, payload bytes),
* every **receive** (the matched source, tag and bytes — including the
  receives *inside* collective schedules, which the
  :class:`~repro.simmpi.tracing.Tracer` never shows),
* every **compute** charge (modeled seconds plus its label), and
* collective boundaries and the algorithm the adaptive selector
  resolved at each call site (with the payload size and whether the
  choice was ``"auto"``).

The frozen :class:`ScheduleRecording` that comes out is everything the
"timing replay" half (:mod:`repro.simmpi.replay`) needs to walk the
same message pattern through any platform's network model without
touching FEM/CG/LA code.  Recordings serialize to a self-validating
:func:`repro.store.frame` of kind ``REC `` (layout:
``docs/architecture.md``, "On-disk formats") so the broker can keep
them in its content-addressed cache
(:class:`~repro.broker.cache.RecordingStore`).

Recordings are only valid for deterministic, timing-independent rank
programs on the world communicator: ``split``/``dup``, ``probe``/
``iprobe``, ``Request.test`` polling, and fault injection each log an
*unsupported* mark and the launch returns no recording (callers fall
back to full simulation — see ``docs/replay.md``).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from repro.errors import RecordingError
from repro.network.topology import ClusterTopology
from repro.simmpi.selector import CollectiveSelector
from repro.simmpi.tracing import ALGORITHM, COLLECTIVE, COMPUTE, RECV, SEND, UNSUPPORTED
from repro.store import KIND_RECORDING, MAGIC, frame, unframe  # MAGIC: re-exported

_PICKLE_PROTOCOL = 4

#: Op-tuple kind codes: ("c", seconds, label), ("s", peer, tag, nbytes),
#: ("r", peer, tag, nbytes), ("k", collective_name) -- each the leading
#: fields of the log event of the same kind.
OP_COMPUTE, OP_SEND, OP_RECV, OP_COLLECTIVE = COMPUTE, SEND, RECV, COLLECTIVE


def selector_for(topology: ClusterTopology, num_ranks: int) -> CollectiveSelector:
    """The selector a world communicator of ``num_ranks`` would build.

    Mirrors :meth:`Communicator.selector` exactly — block placement via
    ``topology.node_of_rank``, occupancy = the fullest node — so
    :meth:`ScheduleRecording.compatible_with` re-resolves ``auto``
    decisions with the same inputs the live communicator would use.
    """
    counts: dict[int, int] = {}
    for world in range(num_ranks):
        node = topology.node_of_rank(world)
        counts[node] = counts.get(node, 0) + 1
    return CollectiveSelector(topology, num_ranks, ranks_per_node=max(counts.values()))


def unsupported_reason(events: Sequence[Sequence[tuple]]) -> str | None:
    """The first unsupported-feature mark in per-rank log events
    (rank-major), or None when the schedule is recordable."""
    for rank_events in events:
        for ev in rank_events:
            if ev[0] == UNSUPPORTED:
                return ev[1]
    return None


@dataclass(frozen=True, eq=True)
class ScheduleRecording:
    """One run's frozen communication schedule, ready to re-time.

    ``ops[r]`` is rank ``r``'s ordered op list (see the ``OP_*`` kind
    codes); ``algorithms[r]`` the collective-algorithm decisions the
    run resolved, as ``(collective, algorithm, nbytes, auto,
    segmentable)`` tuples (``nbytes`` is -1 when the call had no size
    hint).  ``meta`` carries workload identity — the broker stores
    ``{"workload", "num_ranks", "discretization"}`` so a cache hit can
    be sanity-checked — and never affects replay semantics.
    """

    num_ranks: int
    ops: tuple[tuple[tuple, ...], ...]
    algorithms: tuple[tuple[tuple, ...], ...] = ()
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_log(cls, events: Sequence[Sequence[tuple]]) -> "ScheduleRecording | None":
        """Project one launch's per-rank log events (a
        :class:`~repro.simmpi.tracing.LogWindow`'s ``events``) onto a
        recording; None if any rank logged an unsupported feature.

        Valid recordings come from world-communicator programs only, so
        the log's world peers are the recording's local peers.
        """
        if unsupported_reason(events) is not None:
            return None
        ops = []
        for rank_events in events:
            rank_ops = []
            for ev in rank_events:
                kind = ev[0]
                if kind == SEND or kind == RECV:
                    rank_ops.append(ev[:4])
                elif kind == COMPUTE:
                    rank_ops.append((COMPUTE, float(ev[1]), ev[2]))
                elif kind == COLLECTIVE:
                    rank_ops.append(ev[:2])
            ops.append(tuple(rank_ops))
        return cls(
            num_ranks=len(ops),
            ops=tuple(ops),
            algorithms=tuple(tuple(ev[1:] for ev in rank_events if ev[0] == ALGORITHM)
                             for rank_events in events),
        )

    def with_meta(self, **meta: Any) -> "ScheduleRecording":
        """A copy with ``meta`` entries merged in (recordings are frozen)."""
        merged = dict(self.meta)
        merged.update(meta)
        return replace(self, meta=merged)

    # -- accounting ---------------------------------------------------------

    def algorithm_counts(self) -> dict[str, int]:
        """Resolved-algorithm executions keyed ``"collective.algorithm"``.

        Matches the launch's aggregated
        :attr:`~repro.simmpi.launcher.SPMDResult.algorithm_counts`
        exactly — the determinism gate the replay tests assert.
        """
        counts: dict[str, int] = {}
        for rank_decisions in self.algorithms:
            for collective, algorithm, _nbytes, _auto, _seg in rank_decisions:
                key = f"{collective}.{algorithm}"
                counts[key] = counts.get(key, 0) + 1
        return counts

    # -- portability --------------------------------------------------------

    def compatible_with(self, topology: ClusterTopology) -> tuple[bool, str]:
        """Can this schedule be replayed on ``topology`` verbatim?

        A recording freezes the algorithms its ``"auto"`` allreduces
        resolved on the *capture* topology.  Selection is a pure
        function of (size, bytes, topology), so the replay is only
        faithful when the target topology resolves every recorded
        ``auto`` decision to the same algorithm; explicit picks (and
        every broadcast, always binomial) are topology-independent and
        always portable.  Returns ``(ok, reason)`` — ``reason`` is the
        first divergence found.
        """
        if not topology.supports(self.num_ranks):
            return False, (
                f"{self.num_ranks} ranks exceed the target's "
                f"{topology.total_cores} cores"
            )
        selector = selector_for(topology, self.num_ranks)
        for rank_decisions in self.algorithms:
            for collective, algorithm, nbytes, auto, segmentable in rank_decisions:
                if not auto:
                    continue
                resolved = selector.select_allreduce(
                    int(nbytes), segmentable=segmentable
                ).algorithm
                if resolved != algorithm:
                    return False, (
                        f"auto {collective} of {nbytes} B resolves to "
                        f"{resolved!r} on the target topology but the "
                        f"recording froze {algorithm!r}"
                    )
        return True, ""

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Self-validating binary form: a ``REC `` frame around the pickled document."""
        payload = pickle.dumps(
            {
                "num_ranks": self.num_ranks,
                "meta": self.meta,
                "ops": self.ops,
                "algorithms": self.algorithms,
            },
            protocol=_PICKLE_PROTOCOL,
        )
        return frame(KIND_RECORDING, payload)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ScheduleRecording":
        """Parse and validate; :class:`RecordingError` on any corruption.

        Everything :func:`repro.store.unframe` detects raises, so the
        recording store can treat bad entries as misses instead of
        replaying garbage timings.
        """
        payload = unframe(KIND_RECORDING, blob, error=RecordingError)
        try:
            doc = pickle.loads(payload)
            recording = cls(
                num_ranks=int(doc["num_ranks"]),
                meta=dict(doc["meta"]),
                ops=doc["ops"],
                algorithms=doc["algorithms"],
            )
        except Exception as exc:  # pragma: no cover - digest catches nearly all
            raise RecordingError(f"recording payload failed to decode: {exc}") from exc
        if len(recording.ops) != recording.num_ranks:
            raise RecordingError(
                f"recording claims {recording.num_ranks} ranks but carries "
                f"{len(recording.ops)} op streams"
            )
        return recording
