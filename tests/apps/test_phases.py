"""Tests for phase instrumentation and the paper's timing reduction."""

import pytest

from repro.errors import ExperimentError
from repro.harness.config import to_json
from repro.apps.phases import (
    DEFAULT_DISCARD,
    IterationPhases,
    PhaseClock,
    PhaseLog,
)


class TestIterationPhases:
    def test_total(self):
        it = IterationPhases(assembly=1.0, preconditioner=0.5, solve=2.0, other=0.1)
        assert it.total == pytest.approx(3.6)

    def test_as_dict(self):
        """The JSON form holds the phases; ``total`` stays derived."""
        d = to_json(IterationPhases(assembly=1.0))
        assert d == {"assembly": 1.0, "preconditioner": 0.0, "solve": 0.0,
                     "other": 0.0}


class TestPhaseClock:
    def test_accumulates_with_injected_clock(self):
        t = [0.0]
        clock = PhaseClock(now=lambda: t[0])
        with clock.phase("assembly"):
            t[0] += 2.0
        with clock.phase("solve"):
            t[0] += 3.0
        with clock.phase("assembly"):
            t[0] += 1.0
        phases = clock.finish_iteration()
        assert phases.assembly == pytest.approx(3.0)
        assert phases.solve == pytest.approx(3.0)
        assert phases.total == pytest.approx(6.0)

    def test_finish_resets(self):
        t = [0.0]
        clock = PhaseClock(now=lambda: t[0])
        with clock.phase("solve"):
            t[0] += 1.0
        clock.finish_iteration()
        assert clock.current.total == 0.0

    def test_unknown_phase_rejected(self):
        clock = PhaseClock()
        with pytest.raises(ExperimentError):
            with clock.phase("visualization"):
                pass

    def test_wall_clock_default(self):
        import time

        clock = PhaseClock()
        with clock.phase("assembly"):
            time.sleep(0.01)
        phases = clock.finish_iteration()
        assert phases.assembly > 0.005


class TestPhaseLog:
    def _log_with(self, totals, discard=2):
        log = PhaseLog(discard=discard)
        for v in totals:
            log.append(IterationPhases(assembly=v, solve=2 * v))
        return log

    def test_default_discard_is_five(self):
        """§VII.A: the first 5 iterations are discarded."""
        assert DEFAULT_DISCARD == 5
        assert PhaseLog().discard == 5

    def test_discard_and_average(self):
        log = self._log_with([100.0, 100.0, 1.0, 2.0, 3.0], discard=2)
        avg = log.averages()
        assert avg.assembly == pytest.approx(2.0)
        assert avg.solve == pytest.approx(4.0)

    def test_no_measured_iterations_raises(self):
        log = self._log_with([1.0, 2.0], discard=5)
        with pytest.raises(ExperimentError):
            log.averages()

    def test_measured_property(self):
        log = self._log_with([1, 2, 3, 4], discard=1)
        assert len(log.measured) == 3
