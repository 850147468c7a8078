"""Fault injection and checkpoint/restart for the simulated platforms.

The paper's spot-instance experience — partial fulfillment, reclaims
mid-run, on-demand replacements — becomes executable here: seeded
:class:`~repro.resilience.faults.FaultPlan` trajectories kill simmpi
ranks and perturb messages, and the
:class:`~repro.resilience.runner.ResilientRunner` survives them by
checkpointing at step boundaries and resuming bit-exactly.  See
``docs/resilience.md``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.resilience.malleable": ("repartition_state",),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
