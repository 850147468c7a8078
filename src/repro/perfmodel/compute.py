"""Deterministic compute charging for record/replay runs.

The distributed apps normally charge each rank's virtual clock with the
*measured* wall time of its local numerics (``real_seconds /
cpu_speed_factor``) — faithful, but nondeterministic: two captures of
the same run charge slightly different times, so a recorded schedule
could never replay bit-identically against a fresh full simulation.

:class:`ModeledCompute` replaces the measurement with the analytic
per-phase operation counts of :mod:`repro.apps.workload`: a charge is
``work_units(phase) / rate`` where ``rate`` is the platform's
per-core flop rate.  Capture a schedule at ``rate=1.0`` and the
recorded charge *is* the work count exactly (IEEE: ``x / 1.0 == x``);
replay divides the recorded work by the target platform's rate — the
same single division a full simulation on that platform performs — so
modeled compute times match to the last bit (see ``docs/replay.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from repro.apps.workload import NS_WORKLOAD, RD_WORKLOAD
from repro.errors import ReproError


@dataclass(frozen=True)
class ModeledCompute:
    """A deterministic ``compute_charger``: fixed work per phase / rate.

    ``work`` maps phase labels to per-charge work units (flops);
    ``rate`` is the platform compute rate (flops/s).  Instances are
    frozen so the same charger object can be shared across ranks.
    """

    work: tuple[tuple[str, float], ...]
    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ReproError(f"compute rate must be > 0, got {self.rate}")

    def work_units(self, phase: str) -> float:
        """Work units (flops) charged per call of ``phase``."""
        for label, units in self.work:
            if label == phase:
                return units
        raise ReproError(
            f"no modeled work for phase {phase!r} "
            f"(known: {[label for label, _ in self.work]})"
        )

    def __call__(self, phase: str, measured_seconds: float = 0.0) -> float:
        """Virtual seconds to charge for one ``phase`` call.

        ``measured_seconds`` (the wall time the app measured) is part
        of the ``compute_charger`` calling convention but deliberately
        ignored — determinism is the whole point.
        """
        return self.work_units(phase) / self.rate


def rd_modeled_compute(problem, num_ranks: int, rate: float = 1.0) -> ModeledCompute:
    """Modeled charger for :func:`~repro.apps.reaction_diffusion.run_rd_distributed`.

    Work per charge follows the Q2 workload constants: assembly scales
    with this rank's share of the elements, preconditioner setup with
    its share of the DOFs (``prod(2*n_i + 1)`` for mesh shape ``n``).
    """
    elements_per_rank = prod(problem.mesh_shape) / num_ranks
    dofs_per_rank = prod(2 * n + 1 for n in problem.mesh_shape) / num_ranks
    return ModeledCompute(
        work=(
            ("assembly", RD_WORKLOAD.assembly_flops_per_element * elements_per_rank),
            ("preconditioner", RD_WORKLOAD.precond_flops_per_dof * dofs_per_rank),
        ),
        rate=float(rate),
    )


def ns_modeled_compute(problem, num_ranks: int, rate: float = 1.0) -> ModeledCompute:
    """Modeled charger for :func:`~repro.apps.navier_stokes.run_ns_distributed`.

    The distributed NS driver charges a single "assembly" phase per
    step (its seven solves are communication-bound in the simulator).
    """
    elements_per_rank = prod(problem.mesh_shape) / num_ranks
    return ModeledCompute(
        work=(
            ("assembly", NS_WORKLOAD.assembly_flops_per_element * elements_per_rank),
        ),
        rate=float(rate),
    )
