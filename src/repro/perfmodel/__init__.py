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

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.perfmodel.phases": ("PhaseModel",),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
