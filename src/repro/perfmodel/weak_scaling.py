"""Weak-scaling sweeps: the engine behind Figures 4-7.

For each platform and each rank count of the paper's cubic series, the
sweep checks feasibility (capacity and the §VII.A execution ceilings),
predicts per-phase iteration times through the :class:`PhaseModel`, and
attaches per-iteration dollar costs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.apps.workload import AppWorkload, paper_rank_series
from repro.costs.model import cost_per_iteration
from repro.perfmodel.calibration import time_scale_for
from repro.perfmodel.phases import PhaseModel, PhasePrediction
from repro.platforms.limits import rank_ceiling_reason
from repro.platforms.spec import PlatformSpec


@dataclass(frozen=True)
class WeakScalingPoint:
    """One (platform, rank-count) cell of a weak-scaling figure."""

    platform: str
    num_ranks: int
    feasible: bool
    limit_reason: str
    prediction: PhasePrediction | None
    nodes: int
    cost_per_iteration: float


def weak_scaling_sweep(
    workload: AppWorkload,
    platform: PlatformSpec,
    rank_series: list[int] | None = None,
    core_hour_rate: float | None = None,
) -> list[WeakScalingPoint]:
    """One platform's weak-scaling column for a figure, 20^3 elements a rank.

    Infeasible points (beyond the platform's ceiling) are included with
    ``feasible=False`` so the figure generators can report *why* a curve
    stops — the paper's curves for puma, ellipse and lagrange all
    truncate before 1000.
    """
    if rank_series is None:
        rank_series = paper_rank_series(1000)
    if not rank_series:
        raise ExperimentError("rank series is empty")
    model = PhaseModel(
        workload,
        platform,
        time_scale=time_scale_for(workload),
    )
    points = []
    for p in rank_series:
        reason = rank_ceiling_reason(platform, p)
        if reason is not None:
            points.append(
                WeakScalingPoint(
                    platform=platform.name,
                    num_ranks=p,
                    feasible=False,
                    limit_reason=reason,
                    prediction=None,
                    nodes=0,
                    cost_per_iteration=float("inf"),
                )
            )
            continue
        prediction = model.predict(p)
        points.append(
            WeakScalingPoint(
                platform=platform.name,
                num_ranks=p,
                feasible=True,
                limit_reason="",
                prediction=prediction,
                nodes=platform.nodes_for_ranks(p),
                cost_per_iteration=cost_per_iteration(
                    platform, p, prediction.total, core_hour_rate=core_hour_rate
                ),
            )
        )
    return points
