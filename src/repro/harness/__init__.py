"""Experiment harness: configuration, point functions and result types.

:mod:`repro.harness.experiments` computes one *point* of a paper
artifact (a platform column of Figures 4-7, a Table II row, one
resilience or elasticity run); :mod:`repro.harness.results` holds the
record types and reductions; :mod:`repro.harness.config` the one
:class:`RunConfig`.  Whole artifacts are defined once, in
:mod:`repro.broker.registry`, and produced by :func:`repro.run`.
"""

from repro.harness.config import ResilienceParams, RunConfig
from repro.harness.results import (
    PortingEffort,
    PortingEffortReport,
    Table1Matrix,
    WeakScalingTable,
    weak_scaling_rows,
    weak_scaling_series,
)
from repro.harness.experiments import ElasticityReport, Table2Row

__all__ = [
    "RunConfig",
    "ResilienceParams",
    "Table1Matrix",
    "PortingEffort",
    "PortingEffortReport",
    "WeakScalingTable",
    "weak_scaling_rows",
    "weak_scaling_series",
    "ElasticityReport",
    "Table2Row",
]
