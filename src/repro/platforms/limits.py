"""The execution ceilings of §VII.A, as one analytic fact.

Two platforms could not run the full weak-scaling series:

* **ellipse** — "our tasks spanning above 512 processes could not be
  launched (mpiexec was unable to initialize a huge number of remote
  MPI daemons)": ``PlatformSpec.max_launch_ranks``;
* **lagrange** — "our simulation codes reached the configured limit of
  data volume sent by the IB network adapters.  As a result, we could
  not execute tasks bigger than 343 processes":
  ``PlatformSpec.data_volume_cap_ranks``.

Nothing executes these failures: every artifact asks
:func:`rank_ceiling_reason` whether a rank count fits, and reports its
message for the cells the paper could not run.
"""

from __future__ import annotations

from repro.platforms.spec import PlatformSpec


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
    """Why ``num_ranks`` cannot run on ``platform``; None when it can.

    The message names the mechanism behind the lowest bound: mpiexec's
    remote daemons, the IB adapters' data volume, or the cores.
    """
    limit = effective_max_ranks(platform)
    if num_ranks <= limit:
        return None
    if limit == platform.max_launch_ranks:
        return (
            f"{num_ranks} ranks exceed the {limit} remote daemons mpiexec "
            f"can initialize (paper §VII.A)"
        )
    if limit == platform.data_volume_cap_ranks:
        return (
            f"{num_ranks} ranks exceed the IB adapters' data-volume cap of "
            f"{limit} processes (paper §VII.A)"
        )
    return (
        f"{num_ranks} ranks exceed the machine's "
        f"{platform.total_cores} cores"
    )
