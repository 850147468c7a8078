"""Malleable shrink/expand: repartitioning and trajectory bit-consistency."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.navier_stokes import NSProblem
from repro.apps.reaction_diffusion import RDProblem
from repro.errors import ResilienceError
from repro.fem.dofmap import DofMap
from repro.harness.config import from_json, to_json
from repro.resilience import (
    MalleableRunResult,
    RepartitionReport,
    decompose,
    repartition_state,
    run_malleable,
)
from repro.resilience.malleable import MALLEABLE_CHECKPOINT, ownership_from_partition

pytestmark = pytest.mark.resilience

PROBLEM = RDProblem(mesh_shape=(4, 4, 4), num_steps=6)


def _assert_matches(result: MalleableRunResult, reference: MalleableRunResult):
    assert result.solution.tobytes() == reference.solution.tobytes()
    assert result.t == reference.t
    assert result.records == reference.records
    assert result.nodal_error == reference.nodal_error


class TestTrajectoryBitConsistency:
    """Any (width, steps) schedule reproduces the fixed-p trajectory."""

    PROBLEM = PROBLEM
    #: RD's manufactured solution is exact in Q2/BDF2: solver tolerance only.
    NODAL_ERROR_BOUND = 1e-9

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        """The uninterrupted fixed-width run every schedule must reproduce."""
        return run_malleable(self.PROBLEM, [(2, 6)], tmp_path_factory.mktemp("ref"))

    def test_fixed_width_reference_is_accurate(self, reference):
        assert reference.nodal_error < self.NODAL_ERROR_BOUND

    def test_shrink_matches_fixed_width(self, tmp_path, reference):
        out = run_malleable(self.PROBLEM, [(4, 3), (2, 3)], tmp_path)
        _assert_matches(out, reference)
        assert len(out.repartitions) == 1
        assert out.repartitions[0].p_old == 4
        assert out.repartitions[0].p_new == 2

    def test_expand_matches_fixed_width(self, tmp_path, reference):
        out = run_malleable(self.PROBLEM, [(2, 2), (4, 4)], tmp_path)
        _assert_matches(out, reference)
        assert out.repartitions[0].p_new > out.repartitions[0].p_old

    def test_non_power_of_two_widths(self, tmp_path, reference):
        out = run_malleable(self.PROBLEM, [(3, 3), (5, 3)], tmp_path)
        _assert_matches(out, reference)

    def test_shrink_to_single_rank(self, tmp_path, reference):
        out = run_malleable(self.PROBLEM, [(4, 3), (1, 3)], tmp_path)
        _assert_matches(out, reference)
        assert out.repartitions[0].p_new == 1

    def test_three_segment_schedule(self, tmp_path, reference):
        out = run_malleable(self.PROBLEM, [(2, 2), (4, 2), (3, 2)], tmp_path)
        _assert_matches(out, reference)
        assert len(out.repartitions) == 2

    def test_same_width_segments_still_checkpoint(self, tmp_path, reference):
        out = run_malleable(self.PROBLEM, [(2, 3), (2, 3)], tmp_path)
        _assert_matches(out, reference)
        # The full lifecycle runs even when the width does not change.
        assert len(out.repartitions) == 1
        assert out.repartitions[0].moved_dofs == 0
        assert (tmp_path / MALLEABLE_CHECKPOINT).exists()


class TestTrajectoryBitConsistencyNS(TestTrajectoryBitConsistency):
    """NS shrinks and expands through the same path, bit-exactly."""

    PROBLEM = NSProblem(mesh_shape=(4, 4, 4), num_steps=6)
    #: Q1 on a 4^3 mesh: the velocity carries discretization error.
    NODAL_ERROR_BOUND = 0.5


# Random schedules over a 4-step problem: segment widths in 1..4,
# segment lengths partitioning the step count.
_HYP_STEPS = 4
_HYP_REFERENCES: dict = {}


def _hyp_reference(problem):
    if problem not in _HYP_REFERENCES:
        with tempfile.TemporaryDirectory() as scratch:
            out = run_malleable(problem, [(1, _HYP_STEPS)], scratch)
        _HYP_REFERENCES[problem] = {
            "solution": out.solution.tobytes(), "t": out.t, "records": out.records,
        }
    return _HYP_REFERENCES[problem]


@st.composite
def _schedules(draw):
    remaining = _HYP_STEPS
    schedule = []
    while remaining:
        steps = draw(st.integers(min_value=1, max_value=remaining))
        width = draw(st.integers(min_value=1, max_value=4))
        schedule.append((width, steps))
        remaining -= steps
    return schedule


_HYP_RD = RDProblem(mesh_shape=(4, 4, 4), num_steps=_HYP_STEPS)
_HYP_NS = NSProblem(mesh_shape=(4, 4, 4), num_steps=_HYP_STEPS)


class TestScheduleProperty:
    # Both applications, each also through p = 1 and non-power-of-two widths.
    @settings(max_examples=8, deadline=None)
    @given(problem=st.sampled_from([_HYP_RD, _HYP_NS]), schedule=_schedules())
    @example(problem=_HYP_RD, schedule=[(1, 1), (3, 3)])
    @example(problem=_HYP_NS, schedule=[(1, 1), (3, 3)])
    @example(problem=_HYP_NS, schedule=[(3, 2), (1, 2)])
    def test_any_schedule_matches_fixed_width(self, problem, schedule):
        reference = _hyp_reference(problem)
        with tempfile.TemporaryDirectory() as scratch:
            out = run_malleable(problem, schedule, scratch)
        assert out.solution.tobytes() == reference["solution"]
        assert out.t == reference["t"]
        assert out.records == reference["records"]
        assert len(out.repartitions) == len(schedule) - 1


class TestRepartitionState:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        """A mid-run v2 checkpoint written at width 2 after step 3."""
        scratch = tmp_path_factory.mktemp("ckpt")
        run_malleable(PROBLEM, [(2, 3), (2, 3)], scratch)
        return scratch / MALLEABLE_CHECKPOINT

    def test_expand_beyond_checkpoint_width(self, checkpoint):
        states, t, step, ownership, report = repartition_state(
            checkpoint, PROBLEM, 8
        )
        assert report.p_old == 2
        assert report.p_new == 8
        assert step == 3
        assert len(ownership) == 8
        num_dofs = DofMap(PROBLEM.mesh(), PROBLEM.order).num_dofs
        stacked = np.sort(np.concatenate(ownership))
        assert np.array_equal(stacked, np.arange(num_dofs))
        # The history is global and replicated: every state full-length.
        assert all(s.shape == (num_dofs,) for s in states)
        assert t > PROBLEM.t0

    def test_shrink_to_single_rank(self, checkpoint):
        _, _, _, ownership, report = repartition_state(checkpoint, PROBLEM, 1)
        assert report.p_new == 1
        assert len(ownership) == 1
        assert ownership[0].size == report.num_dofs

    def test_non_power_of_two_target(self, checkpoint):
        _, _, _, ownership, report = repartition_state(checkpoint, PROBLEM, 5)
        assert len(ownership) == 5
        assert all(idx.size > 0 for idx in ownership)
        assert report.load_imbalance >= 1.0
        assert report.edge_cut > 0

    def test_report_is_consistent_and_serializable(self, checkpoint):
        *_, report = repartition_state(checkpoint, PROBLEM, 4)
        assert isinstance(report, RepartitionReport)
        assert 0 <= report.moved_dofs <= report.num_dofs
        assert 0.0 <= report.moved_fraction <= 1.0
        assert report.seconds >= 0.0
        clone = json.loads(json.dumps(to_json(report)))
        assert clone["p_old"] == 2
        assert clone["p_new"] == 4
        assert from_json(RepartitionReport, clone, "report") == report


class TestValidation:
    def test_empty_schedule_rejected(self, tmp_path):
        with pytest.raises(ResilienceError, match="at least one segment"):
            run_malleable(PROBLEM, [], tmp_path)

    def test_schedule_must_cover_all_steps(self, tmp_path):
        with pytest.raises(ResilienceError, match="covers 4 steps"):
            run_malleable(PROBLEM, [(2, 2), (2, 2)], tmp_path)

    def test_zero_width_segment_rejected(self, tmp_path):
        with pytest.raises(ResilienceError, match=r"\(0, 6\)"):
            run_malleable(PROBLEM, [(0, 6)], tmp_path)

    def test_decompose_needs_a_rank(self):
        with pytest.raises(ResilienceError, match="at least one rank"):
            decompose(PROBLEM, 0)

    def test_empty_partition_part_is_an_error(self):
        dofmap = DofMap(PROBLEM.mesh(), PROBLEM.order)
        assignment = np.zeros(dofmap.cell_dofs.shape[0], dtype=np.int64)
        with pytest.raises(ResilienceError, match="empty DOF set for rank 1"):
            ownership_from_partition(dofmap, assignment, 2)
