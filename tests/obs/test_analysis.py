"""Analysis passes: phase statistics, critical path, overlap."""

import pytest

from repro.obs.core import Observability
from repro.obs.analysis import critical_path, overlap_report, phase_statistics

from .conftest import DISCARD, NUM_RANKS, NUM_STEPS

PHASES = ("assembly", "preconditioner", "solve")


class TestPhaseStatistics:
    def test_per_rank_means_match_phaselog_averages(self, rd_run):
        """The acceptance bar: agree with the harness reduction to 1e-9.

        ``PhaseLog.averages()`` is the reduction the paper harness uses
        (:mod:`repro.harness.results` consumes its output); the span
        tree must reproduce it from independently recorded timings.
        """
        obs, logs, _ = rd_run
        stats = phase_statistics(obs)
        for rank in range(NUM_RANKS):
            avg = logs[rank].averages()
            for phase in PHASES:
                assert stats[rank][phase].mean == pytest.approx(
                    getattr(avg, phase), abs=1e-9
                )

    def test_histogram_means_match_phaselog_averages(self, rd_run):
        """Same bar for the live metrics path (phase_seconds histogram)."""
        obs, logs, _ = rd_run
        h = obs.metrics.histogram("phase_seconds")
        for rank in range(NUM_RANKS):
            avg = logs[rank].averages()
            for phase in PHASES:
                observed = h.stats(rank=rank, labels={"phase": phase})
                assert observed["count"] == NUM_STEPS - DISCARD
                assert observed["mean"] == pytest.approx(
                    getattr(avg, phase), abs=1e-9
                )

    def test_counts_and_totals_consistent(self, rd_run):
        obs, _, _ = rd_run
        stats = phase_statistics(obs)
        for rank in range(NUM_RANKS):
            for phase in PHASES:
                s = stats[rank][phase]
                assert s.count == NUM_STEPS - DISCARD
                assert s.total == pytest.approx(s.mean * s.count)
                assert s.max <= s.total

    def test_merged_row_is_max_over_ranks_per_iteration(self, rd_run):
        obs, _, _ = rd_run
        stats = phase_statistics(obs)
        merged = stats[None]
        for phase in PHASES:
            per_rank_means = [stats[r][phase].mean for r in range(NUM_RANKS)]
            assert merged[phase].mean >= max(per_rank_means) - 1e-12
            assert merged[phase].rank is None

    def test_discard_zero_keeps_all_iterations(self, rd_run):
        obs, _, _ = rd_run
        stats = phase_statistics(obs, discard=0)
        assert stats[0]["solve"].count == NUM_STEPS


class TestCriticalPath:
    def test_reports_bounding_rank_and_phase_per_step(self, rd_run):
        """Acceptance: name which (rank, phase) bounds each step."""
        obs, _, _ = rd_run
        report = critical_path(obs)
        bounding = report.bounding_by_step()
        assert set(bounding) == set(range(NUM_STEPS))
        for step, (rank, phase) in bounding.items():
            assert rank in range(NUM_RANKS)
            assert phase in PHASES

    def test_path_ends_at_the_last_event(self, rd_run):
        obs, _, _ = rd_run
        report = critical_path(obs)
        assert report.length > 0.0
        segments = report.segments
        assert len(segments) > 1
        assert all(seg.duration >= 0.0 for seg in segments)
        # the path terminates at the run's final event
        times = [rec.t_end for rec in obs.tracer.snapshot()]
        assert segments[-1].t_end == pytest.approx(max(times))

    def test_time_attribution_is_positive_and_well_keyed(self, rd_run):
        obs, _, _ = rd_run
        report = critical_path(obs)
        attribution = report.time_by_rank_phase()
        assert attribution
        assert sum(attribution.values()) > 0.0
        for (rank, phase), t in attribution.items():
            assert rank in range(NUM_RANKS)
            assert t >= 0.0

    def test_format_names_ranks_and_phases(self, rd_run):
        obs, _, _ = rd_run
        text = critical_path(obs).format()
        assert "critical path" in text
        assert "bounded by rank" in text
        for step in range(NUM_STEPS):
            assert f"step {step}:" in text

    def test_empty_trace_yields_empty_report(self):
        report = critical_path(Observability())
        assert report.segments == ()
        assert report.length == 0.0
        assert report.time_by_rank_phase() == {}
        assert "critical path: 0 events" in report.format()


class TestOverlap:
    def test_report_shape_and_bounds(self, rd_run):
        obs, _, _ = rd_run
        report = overlap_report(obs)
        assert report["window"] > 0.0
        assert 0.0 <= report["overlap_ratio"] <= 1.0
        assert set(report["ranks"]) == set(range(NUM_RANKS))
        for stats in report["ranks"].values():
            assert stats["comm"] >= 0.0 and stats["compute"] >= 0.0
            assert stats["overlap"] <= stats["comm"] + 1e-12
            assert 0.0 <= stats["overlap_ratio"] <= 1.0
