"""The broker's simsweep artifact: record once, replay per platform.

The executed platform sweep must behave identically however it is
driven: serial loop vs parallel fan-out produce the same rows *and*
the same single cached recording (byte for byte), and the replay fast
path is only an execution strategy — every virtual makespan and clock
vector is bit-identical to a full simulation on that platform.
"""

import pytest

import repro
from repro.broker.simsweep import (
    SWEEP_NUM_RANKS,
    SimSweepTable,
    _full_sim,
    _platform_topology,
    _sweep_problem,
    capture_recording,
)
from repro.harness.config import RunConfig
from repro.platforms.catalog import platform_by_name


def _sweep(tmp_path, name, **kwargs):
    config = RunConfig(cache_dir=str(tmp_path / name))
    result = repro.run(repro.RunRequest(
        artifacts=("simsweep",), config=config, use_cache=False, **kwargs,
    ))
    return result.artifact("simsweep"), result.render("simsweep")


def _rec_files(tmp_path, name):
    return sorted((tmp_path / name / "recordings").glob("*.rec"))


class TestSerialParallelIdentity:
    @pytest.fixture(scope="class")
    def sweeps(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("simsweep")
        serial = _sweep(tmp, "serial")
        fanned = _sweep(tmp, "fanned", parallel=2)
        return tmp, serial, fanned

    def test_rows_bit_identical(self, sweeps):
        _, (serial, _), (fanned, _) = sweeps
        assert serial.rows == fanned.rows

    def test_renders_identical(self, sweeps):
        _, (_, serial_text), (_, fanned_text) = sweeps
        assert serial_text == fanned_text

    def test_exactly_one_recording_per_sweep(self, sweeps):
        """Four platform points share one cached recording."""
        tmp, _, _ = sweeps
        assert len(_rec_files(tmp, "serial")) == 1
        assert len(_rec_files(tmp, "fanned")) == 1

    def test_recording_bytes_identical_across_fanout(self, sweeps):
        tmp, _, _ = sweeps
        (serial_rec,) = _rec_files(tmp, "serial")
        (fanned_rec,) = _rec_files(tmp, "fanned")
        assert serial_rec.read_bytes() == fanned_rec.read_bytes()

    def test_every_platform_point_replayed(self, sweeps):
        _, (serial, _), _ = sweeps
        assert isinstance(serial, SimSweepTable)
        assert [row["platform"] for row in serial.rows] == [
            "puma", "ellipse", "lagrange", "ec2",
        ]
        for row in serial.rows:
            assert row["replayed"] and row["bypass_reason"] == ""
            assert row["num_ranks"] == SWEEP_NUM_RANKS
            assert row["makespan_s"] > 0


class TestReplayOffIsPureStrategy:
    def test_no_replay_full_sim_matches_bit_for_bit(self, tmp_path):
        """Each replayed row equals a full simulation on its platform."""
        replayed, _ = _sweep(tmp_path, "on")
        problem = _sweep_problem()
        for row in replayed.rows:
            assert row["replayed"]
            spec = platform_by_name(row["platform"])
            full = _full_sim(
                problem, SWEEP_NUM_RANKS,
                _platform_topology(spec, SWEEP_NUM_RANKS), spec.core_flops(),
            )
            assert row["makespan_s"] == full.max_time
            assert row["clocks"] == list(full.clocks)
            assert row["total_bytes"] == full.total_bytes


class TestCapturedRecordingMeta:
    def test_capture_carries_workload_identity(self):
        recording = capture_recording()
        assert recording.meta["workload"]
        assert recording.meta["num_ranks"] == SWEEP_NUM_RANKS
        disc = recording.meta["discretization"]
        assert disc["num_ranks"] == SWEEP_NUM_RANKS
        assert "platform" not in disc
