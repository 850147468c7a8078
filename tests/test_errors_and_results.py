"""Coverage for the exception hierarchy and harness result edge cases."""

import pytest

from repro import errors
from repro.harness.results import WeakScalingTable, weak_scaling_rows
from repro.perfmodel.weak_scaling import WeakScalingPoint


class TestErrorHierarchy:
    def test_everything_is_a_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError), name

    def test_convergence_error_carries_diagnostics(self):
        exc = errors.ConvergenceError("nope", iterations=7, residual=1e-3)
        assert exc.iterations == 7
        assert exc.residual == 1e-3
        assert isinstance(exc, errors.SolverError)

    def test_subsystem_families(self):
        assert issubclass(errors.DeadlockError, errors.SimMPIError)
        assert issubclass(errors.LaunchError, errors.SimMPIError)
        assert issubclass(errors.ProvisioningError, errors.PlatformError)
        assert issubclass(errors.SchedulerError, errors.PlatformError)
        assert issubclass(errors.BillingError, errors.CloudError)

    def test_one_except_clause_catches_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.BillingError("x")


class TestWeakScalingTableEdges:
    def _point(self, platform, ranks, feasible=True):
        return WeakScalingPoint(
            platform=platform,
            num_ranks=ranks,
            feasible=feasible,
            limit_reason="" if feasible else "capacity",
            prediction=None,
            nodes=0,
            cost_per_iteration=float("inf"),
        )

    def test_all_infeasible_column_raises_on_feasible_max(self):
        from repro.errors import ExperimentError

        table = WeakScalingTable(
            workload="x",
            columns={"dead": [self._point("dead", 1, feasible=False)]},
        )
        with pytest.raises(ExperimentError):
            table.feasible_max("dead")

    def test_infeasible_cells_render_as_none(self):
        table = WeakScalingTable(
            workload="x",
            columns={"dead": [self._point("dead", 1, feasible=False)]},
        )
        _headers, rows = weak_scaling_rows(table, "total")
        assert rows == [[1, None]]
