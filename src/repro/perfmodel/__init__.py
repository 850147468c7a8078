"""Performance prediction: per-phase times at any rank count.

The virtual-time simulator executes real numerics and is therefore
bounded to modest rank counts; the weak-scaling figures go to 1000 MPI
processes.  This package provides the analytic bridge: per-phase flop
counts (from :mod:`repro.apps.workload`) divided by platform sustained
rates, plus communication costed through the same network models the
simulator uses.  Calibration anchors the absolute scale to the paper's
measured single-rank iteration time and the tests cross-validate the
model against executed simmpi runs at small scale.
"""

from repro.perfmodel.phases import PhasePrediction, PhaseModel
from repro.perfmodel.compute import (
    ModeledCompute,
    ns_modeled_compute,
    rd_modeled_compute,
)
from repro.perfmodel.calibration import (
    RD_TIME_SCALE,
    NS_TIME_SCALE,
    calibrate_against_sequential_run,
)
from repro.perfmodel.weak_scaling import (
    WeakScalingPoint,
    weak_scaling_sweep,
    platform_rank_limit,
)

__all__ = [
    "PhasePrediction",
    "PhaseModel",
    "ModeledCompute",
    "rd_modeled_compute",
    "ns_modeled_compute",
    "RD_TIME_SCALE",
    "NS_TIME_SCALE",
    "calibrate_against_sequential_run",
    "WeakScalingPoint",
    "weak_scaling_sweep",
    "platform_rank_limit",
]
