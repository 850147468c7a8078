"""Failure injection: the execution pathologies of §VII.A.

Two platforms could not run the full weak-scaling series:

* **ellipse** — "our tasks spanning above 512 processes could not be
  launched (mpiexec was unable to initialize a huge number of remote
  MPI daemons)": modeled as a :class:`~repro.errors.LaunchError` raised
  by the launch hook before any rank starts;
* **lagrange** — "our simulation codes reached the configured limit of
  data volume sent by the IB network adapters.  As a result, we could
  not execute tasks bigger than 343 processes": modeled as a per-rank
  send-volume budget that the 512-rank halo traffic exceeds but the
  343-rank traffic does not.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import LaunchError
from repro.platforms.spec import PlatformSpec

# Calibrated per-rank send budget for lagrange, in bytes.  The RD halo
# traffic per rank is roughly constant in a weak-scaling sweep, but the
# *aggregate* per-adapter volume grows with ranks per node and with the
# collective fan-in at higher process counts; the operators' configured
# cap sat between the 343- and 512-rank runs.  We encode the operative
# consequence directly: the cap admits <= data_volume_cap_ranks ranks.
_LAGRANGE_BUDGET_BYTES_PER_RANK = 2.0e9


def launch_hook_for(platform: PlatformSpec) -> Callable[[int], None] | None:
    """The pre-launch failure hook for a platform (None if benign)."""
    if platform.max_launch_ranks is None:
        return None
    ceiling = platform.max_launch_ranks

    def hook(num_ranks: int) -> None:
        if num_ranks > ceiling:
            raise LaunchError(
                f"{platform.name}: mpiexec was unable to initialize "
                f"{num_ranks} remote MPI daemons (observed ceiling "
                f"{ceiling}, paper §VII.A)"
            )

    return hook


def volume_limit_for(platform: PlatformSpec, num_ranks: int) -> float | None:
    """Per-rank data-volume budget in bytes, or None when unlimited.

    Only lagrange carries a budget; it is sized so runs at or below the
    paper's observed 343-rank ceiling fit and larger runs trip
    :class:`~repro.errors.DataVolumeExceededError` mid-flight.
    """
    if platform.data_volume_cap_ranks is None:
        return None
    cap = platform.data_volume_cap_ranks
    if num_ranks <= cap:
        return _LAGRANGE_BUDGET_BYTES_PER_RANK
    # Above the observed ceiling the same budget is spread over more
    # adapter traffic; scale it down proportionally so the run fails.
    return _LAGRANGE_BUDGET_BYTES_PER_RANK * (cap / num_ranks) ** 3


def effective_max_ranks(platform: PlatformSpec) -> int:
    """The largest weak-scaling point a platform actually sustained.

    puma is capacity-bound (128 cores -> 125 is the largest cube),
    ellipse launch-bound at 512, lagrange volume-bound at 343, EC2
    unbounded up to the 63-instance assembly (1000 ranks).
    """
    capacity = platform.total_cores
    bound = capacity
    if platform.max_launch_ranks is not None:
        bound = min(bound, platform.max_launch_ranks)
    if platform.data_volume_cap_ranks is not None:
        bound = min(bound, platform.data_volume_cap_ranks)
    return bound


def rank_ceiling_reason(platform: PlatformSpec, num_ranks: int) -> str | None:
    """Why ``num_ranks`` cannot run on ``platform``; None when it can."""
    limit = effective_max_ranks(platform)
    if num_ranks <= limit:
        return None
    if num_ranks > platform.total_cores:
        return (
            f"{num_ranks} ranks exceed the machine's "
            f"{platform.total_cores} cores"
        )
    return (
        f"{num_ranks} ranks exceed the observed execution "
        f"ceiling of {limit} (paper §VII.A)"
    )
