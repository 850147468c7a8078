"""Unit semantics of the record/replay subsystem.

Covers the recording's invalidation contract (which features make a run
unrecordable and force the full-simulation path), its projection from
the event log, replay's argument
validation, the ``compatible_with`` portability check, and the
deterministic :class:`ModeledCompute` charger the capture relies on.
"""

import pytest

from repro.apps.reaction_diffusion import RDProblem
from repro.errors import RecordingError, ReplayIncompatibleError, ReproError
from repro.perfmodel.compute import (
    ModeledCompute,
    ns_modeled_compute,
    rd_modeled_compute,
)
from repro.resilience.faults import FaultInjector
from repro.simmpi.launcher import default_topology, run_spmd
from repro.simmpi.recording import ScheduleRecording, unsupported_reason
from repro.simmpi.tracing import (
    COLLECTIVE,
    COMPUTE,
    RECV,
    SEND,
    UNSUPPORTED,
    EventLog,
)
from repro.simmpi.replay import replay_schedule


def _exchange(comm):
    """A recordable baseline program: one neighbor exchange + allreduce."""
    peer = comm.rank ^ 1
    comm.send(b"x" * 16, peer, tag=3)
    comm.recv(source=peer, tag=3)
    comm.allreduce(1.0)


def _with_split(comm):
    sub = comm.split(color=comm.rank % 2)
    sub.allreduce(1.0)


def _with_iprobe(comm):
    _exchange(comm)
    comm.iprobe()


def _with_probe(comm):
    peer = comm.rank ^ 1
    comm.send(b"x", peer, tag=1)
    comm.probe(source=peer, tag=1)
    comm.recv(source=peer, tag=1)


def _with_request_test(comm):
    peer = comm.rank ^ 1
    comm.isend(b"x", peer, tag=1)
    req = comm.irecv(source=peer, tag=1)
    while req.test() is None:
        pass


def _capture(target, **kwargs):
    return run_spmd(
        target, 2, topology=default_topology(2),
        record_schedule=True, **kwargs,
    )


class TestUnrecordablePrograms:
    """Timing-dependent features invalidate the capture (None recording)."""

    def test_plain_exchange_is_recordable(self):
        assert _capture(_exchange).recording is not None

    @pytest.mark.parametrize(
        "target", [_with_split, _with_iprobe, _with_probe, _with_request_test],
        ids=["split", "iprobe", "probe", "request-test"],
    )
    def test_unsupported_feature_yields_no_recording(self, target):
        assert _capture(target).recording is None

    def test_fault_injection_yields_no_recording(self):
        result = _capture(_exchange, fault_injector=FaultInjector())
        assert result.recording is None

    def test_without_record_schedule_no_recording_is_made(self):
        result = run_spmd(_exchange, 2, topology=default_topology(2))
        assert result.recording is None


class TestRecorder:
    """A recording is a projection of the launch's event log."""

    def test_first_invalid_reason_wins(self):
        log = EventLog()
        log.rank(0).append((UNSUPPORTED, "probe"))
        log.rank(0).append((UNSUPPORTED, "split/dup sub-communicators"))
        log.rank(1).append((UNSUPPORTED, "iprobe"))
        events = log.since((0, 0)).events
        assert unsupported_reason(events) == "probe"
        assert ScheduleRecording.from_log(events) is None

    def test_finish_freezes_per_rank_streams(self):
        log = EventLog()
        log.rank(0).append((COMPUTE, 2.5, "assembly", 0.0, 2.5))
        log.rank(0).append((SEND, 1, 7, 64, 2.5, 2.6))
        log.rank(1).append((RECV, 0, 7, 64, 0.0, 2.7, 1, True))
        log.rank(1).append((COLLECTIVE, "allreduce", 2.7, 3.0))
        rec = ScheduleRecording.from_log(
            log.since((0, 0)).events, meta={"workload": "unit"}
        )
        assert rec.ops == ((("c", 2.5, "assembly"), ("s", 1, 7, 64)),
                           (("r", 0, 7, 64), ("k", "allreduce")))
        assert rec.meta == {"workload": "unit"}


class TestCompatibility:
    def test_too_few_cores_is_incompatible(self):
        rec = ScheduleRecording(num_ranks=64, ops=((),) * 64)
        ok, reason = rec.compatible_with(default_topology(2))
        assert not ok and "64 ranks" in reason

    def test_explicit_algorithms_are_always_portable(self):
        rec = ScheduleRecording(
            num_ranks=2, ops=((), ()),
            algorithms=((("allreduce", "ring", 1 << 20, False, True),), ()),
        )
        ok, _ = rec.compatible_with(default_topology(2))
        assert ok

    def test_diverging_auto_decision_is_incompatible(self):
        rec = ScheduleRecording(
            num_ranks=2, ops=((), ()),
            algorithms=((("allreduce", "no-such-algorithm", 64, True, True),), ()),
        )
        ok, reason = rec.compatible_with(default_topology(2))
        assert not ok and "no-such-algorithm" in reason


class TestReplayValidation:
    def test_nonpositive_compute_rate_rejected(self):
        rec = ScheduleRecording(num_ranks=1, ops=((),))
        for rate in (0.0, -1.0):
            with pytest.raises(RecordingError, match="compute_rate"):
                replay_schedule(rec, compute_rate=rate)

    def test_incompatible_topology_raises(self):
        rec = ScheduleRecording(num_ranks=64, ops=((),) * 64)
        with pytest.raises(ReplayIncompatibleError):
            replay_schedule(rec, topology=default_topology(2))

    def test_check_can_be_skipped_by_the_broker(self):
        # Compatibility is only about frozen auto choices; skipping the
        # check on a compatible recording changes nothing.
        rec = _capture(_exchange).recording
        topology = default_topology(2)
        a = replay_schedule(rec, topology=topology)
        b = replay_schedule(rec, topology=topology, check_compatibility=False)
        assert list(a.clocks) == list(b.clocks)


class TestModeledCompute:
    def test_unit_rate_charge_is_the_work_exactly(self):
        charger = ModeledCompute(work=(("assembly", 12345.678),), rate=1.0)
        assert charger("assembly") == 12345.678

    def test_measured_seconds_are_ignored(self):
        charger = ModeledCompute(work=(("assembly", 10.0),), rate=2.0)
        assert charger("assembly", 0.001) == charger("assembly", 99.0) == 5.0

    def test_unknown_phase_rejected(self):
        charger = ModeledCompute(work=(("assembly", 1.0),))
        with pytest.raises(ReproError, match="assembly"):
            charger("preconditioner")

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ReproError, match="rate"):
            ModeledCompute(work=(), rate=0.0)

    def test_at_rate_divides_the_same_work(self):
        problem = RDProblem(mesh_shape=(2, 2, 2), num_steps=1)
        unit = rd_modeled_compute(problem, 2, rate=1.0)
        fast = rd_modeled_compute(problem, 2, rate=2.3e9)
        assert fast("assembly") == unit("assembly") / 2.3e9

    def test_rd_and_ns_models_cover_their_phases(self):
        problem = RDProblem(mesh_shape=(2, 2, 2), num_steps=1)
        rd = rd_modeled_compute(problem, 2)
        assert rd.work_units("assembly") > 0
        assert rd.work_units("preconditioner") > 0
        ns = ns_modeled_compute(problem, 2)
        assert ns.work_units("assembly") > 0
