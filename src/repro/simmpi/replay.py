"""Timing replay: walk a recorded schedule through any platform model.

This is the "timing" half of the record/replay split (ROADMAP item 5).
:func:`replay_schedule` launches one lightweight rank program per
recorded rank that simply replays its op stream — compute charges,
eager sends with dummy payloads of the recorded sizes, and receives
matched on the recorded ``(source, tag)`` — on the ordinary
:func:`~repro.simmpi.launcher.run_spmd` machinery.  No FEM assembly, CG
iteration, or linear algebra runs at all, yet every virtual clock comes
out **bit-identical** to a full simulation on the same topology:

* The recording pins the partial order.  Each receive names the matched
  source and tag, so replay re-executes the exact message matching of
  the original run (ANY_SOURCE nondeterminism is gone — the recorded
  choice *is* the schedule), and the engine's per-(source, tag) FIFO
  delivery preserves multi-message order.
* The clock arithmetic sees identical inputs.  Send cost depends only
  on (nbytes, placement, link) and receive cost only
  on the sender's arrival time — all reproduced exactly, so by
  induction over each rank's op stream every intermediate clock value
  matches to the last bit.
* Compute charges replay the recorded work divided by the target
  platform's rate — the same division a full simulation on that
  platform performs (see :mod:`repro.perfmodel.compute`), so modeled
  compute times match exactly too.

Portability is checked first: a recording freezes its ``auto``
collective algorithm choices, so :func:`replay_schedule` refuses
(:class:`~repro.errors.ReplayIncompatibleError`) when the target
topology's selector would resolve any of them differently; callers
(the broker's simsweep artifact) fall back to full simulation.
"""

from __future__ import annotations

from repro.errors import RecordingError, ReplayIncompatibleError
from repro.network.topology import ClusterTopology
from repro.simmpi.comm import Communicator
from repro.simmpi.launcher import SPMDResult, run_spmd
from repro.simmpi.recording import (
    OP_COMPUTE,
    OP_RECV,
    OP_SEND,
    ScheduleRecording,
)


def _replay_rank(
    comm: Communicator, recording: ScheduleRecording, compute_rate: float
) -> None:
    """Replay one rank's recorded op stream on a live communicator.

    Sends use ``bytes(nbytes)`` dummy payloads (``payload_nbytes`` of a
    bytes object is its length, so byte accounting is exact); receives
    go through the communicator's one receive path with the recorded
    source and tag — collective-internal tags included, which is why
    this bypasses the user-facing ``recv`` (its tag check rejects the
    reserved range).
    """
    for op in recording.ops[comm.rank]:
        kind = op[0]
        if kind == OP_COMPUTE:
            comm.compute(op[1] / compute_rate, label=op[2])
        elif kind == OP_SEND:
            comm._send_impl(bytes(op[3]), op[1], op[2])
        elif kind == OP_RECV:
            comm._recv_impl(op[1], op[2])
        # OP_COLLECTIVE markers carry no timing; the sends/recvs of the
        # collective's schedule are already in the stream.


def replay_schedule(
    recording: ScheduleRecording,
    topology: ClusterTopology | None = None,
    compute_rate: float = 1.0,
    engine: str = "events",
    trace: bool = False,
    check_compatibility: bool = True,
    causal=None,
) -> SPMDResult:
    """Re-time ``recording`` on a platform model; returns an SPMDResult.

    ``topology`` is the target platform (None = the generic test
    cluster); ``compute_rate`` divides the recorded unit-rate compute
    charges (pass the platform's
    :meth:`~repro.platforms.spec.PlatformSpec.core_flops`);
    ``engine``/``trace``/``causal`` mirror
    :func:`~repro.simmpi.launcher.run_spmd` — in
    particular a replayed run logs every message afresh, so replayed
    schedules keep checkable causal clocks.

    With ``check_compatibility`` (the default) the recording's frozen
    ``auto`` collective choices are validated against the target
    topology's selector first and a divergence raises
    :class:`~repro.errors.ReplayIncompatibleError`; pass False when the
    caller already checked (the broker does, to report the bypass
    reason instead of catching).
    """
    if compute_rate <= 0:
        raise RecordingError(f"compute_rate must be > 0, got {compute_rate}")
    if check_compatibility and topology is not None:
        ok, reason = recording.compatible_with(topology)
        if not ok:
            raise ReplayIncompatibleError(
                f"recording cannot replay on this topology: {reason}"
            )
    return run_spmd(
        _replay_rank,
        recording.num_ranks,
        topology=topology,
        args=(recording, float(compute_rate)),
        trace=trace,
        engine=engine,
        causal=causal,
    )


__all__ = ["replay_schedule"]
