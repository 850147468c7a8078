"""Checkpoint overhead and expected rework in the performance model.

The §VII.D cost trade is incomplete without the price of surviving spot
reclaims: checkpointing steals time from every interval, and each
failure throws away half an interval on average plus the restart cost.
The classic first-order model (Young 1974):

* writing a checkpoint every ``tau`` seconds costs a fraction ``c/tau``
  of the run (``c`` = seconds per checkpoint);
* with failures arriving at rate ``lambda``, each failure loses on
  average ``tau/2`` of progress plus the restart time ``R``, so the
  expected wall-clock inflation is::

      wall = base * (1 + c/tau) / (1 - lambda * (tau/2 + R))

  valid while ``lambda * (tau/2 + R) < 1`` (beyond that the run makes
  no forward progress — the model raises);
* the interval minimizing total overhead is Young's
  ``tau* = sqrt(2 * c / lambda)``.

``failure_rate_from_market`` ties ``lambda`` to the same
:class:`~repro.cloud.spot.SpotMarket` spike model that drives billing
and fault injection, closing the loop: one market parameterization
yields consistent dollars, dead ranks, and model predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import CostModelError


def failure_rate_from_market(market, num_spot_instances: int) -> float:
    """Cluster-level failures per hour from the market's spike model.

    A bulk-synchronous job restarts when *any* of its spot instances is
    reclaimed, so the cluster failure rate is (to first order) the
    per-instance spike rate times the spot instance count.
    """
    if num_spot_instances < 0:
        raise CostModelError("num_spot_instances must be >= 0")
    return market.spike_probability * num_spot_instances


@dataclass(frozen=True)
class CheckpointRestartModel:
    """First-order checkpoint/restart overhead model.

    ``checkpoint_seconds``: time to write one checkpoint (steals from
    every interval).  ``restart_seconds``: re-assembly + restore after a
    failure.  ``failure_rate_per_hour``: cluster-level reclaim rate.
    """

    checkpoint_seconds: float
    restart_seconds: float
    failure_rate_per_hour: float

    def __post_init__(self) -> None:
        if self.checkpoint_seconds < 0 or self.restart_seconds < 0:
            raise CostModelError("checkpoint and restart times must be >= 0")
        if self.failure_rate_per_hour < 0:
            raise CostModelError("failure rate must be >= 0")

    @property
    def failure_rate_per_second(self) -> float:
        """``lambda`` in 1/s."""
        return self.failure_rate_per_hour / 3600.0

    def checkpoint_overhead_fraction(self, interval_seconds: float) -> float:
        """Fraction of useful time spent writing checkpoints (``c/tau``)."""
        if interval_seconds <= 0:
            raise CostModelError("checkpoint interval must be positive")
        return self.checkpoint_seconds / interval_seconds

    def expected_rework_seconds(self, interval_seconds: float) -> float:
        """Mean seconds lost per failure: half an interval plus restart."""
        if interval_seconds <= 0:
            raise CostModelError("checkpoint interval must be positive")
        return interval_seconds / 2.0 + self.restart_seconds

    def expected_wall_seconds(
        self, base_seconds: float, interval_seconds: float
    ) -> float:
        """Expected wall clock for ``base_seconds`` of useful work."""
        if base_seconds <= 0:
            raise CostModelError("base run time must be positive")
        lam = self.failure_rate_per_second
        loss = lam * self.expected_rework_seconds(interval_seconds)
        if loss >= 1.0:
            raise CostModelError(
                f"failure rate too high for interval {interval_seconds:.0f}s: "
                f"expected rework ({loss:.2f}) consumes all forward progress"
            )
        inflation = (
            1.0 + self.checkpoint_overhead_fraction(interval_seconds)
        ) / (1.0 - loss)
        return base_seconds * inflation

    def expected_overhead_fraction(
        self, base_seconds: float, interval_seconds: float
    ) -> float:
        """Total expected inflation: wall / base - 1."""
        return self.expected_wall_seconds(base_seconds, interval_seconds) / base_seconds - 1.0

    def optimal_interval_seconds(self) -> float:
        """Young's optimal checkpoint interval ``sqrt(2 c / lambda)``.

        Infinite (checkpointing is pure overhead) when failures never
        happen or checkpoints are free.
        """
        lam = self.failure_rate_per_second
        if lam == 0.0 or self.checkpoint_seconds == 0.0:
            return math.inf
        return math.sqrt(2.0 * self.checkpoint_seconds / lam)


def checkpoint_interval(
    model: CheckpointRestartModel, work_seconds: float
) -> float | None:
    """The interval a run of ``work_seconds`` checkpoints at, or None.

    Young's ``tau*``, capped at the run's own length; None — no
    checkpoints at all — when failures never happen or checkpoints are
    free.  The broker's static spot-mix plan, its elastic refinement and
    :func:`expected_cost_to_go` all price checkpoints by this one rule,
    so a run that is never reclaimed costs the same in each.
    """
    if model.failure_rate_per_hour <= 0 or model.checkpoint_seconds <= 0:
        return None
    return min(model.optimal_interval_seconds(), max(work_seconds, 1.0))


def expected_cost_to_go(
    remaining_work_node_seconds: float,
    progress_rate_nodes: float,
    spot_nodes: int,
    ondemand_nodes: int,
    spot_node_hourly: float,
    ondemand_node_hourly: float,
    spike_probability_per_hour: float,
    checkpoint_seconds: float,
    restart_seconds: float,
    switch_seconds: float = 0.0,
) -> dict:
    """Expected wall seconds and dollars to *finish* under one option.

    The elastic broker's per-reclaim re-plan (``docs/elasticity.md``)
    scores each candidate action — continue degraded, shrink, migrate
    and expand — by what it is expected to cost from here to the end:

    * ``remaining_work_node_seconds`` of useful work drains at
      ``progress_rate_nodes`` node-equivalents per wall second (the
      option's width, discounted for oversubscription imbalance);
    * while ``spot_nodes`` remain exposed, the wall inflates by Young's
      checkpoint overhead and expected rework terms at the interval
      :func:`checkpoint_interval` picks (``tau* = sqrt(2c/lambda)``,
      ``lambda`` = per-node spike rate x exposed nodes);
    * ``switch_seconds`` is the option's one-off transition stall
      (restart, repartition, or migration), during which the target
      assembly is already billed.

    Returns ``{"wall_seconds", "dollars", "tau_seconds", "feasible"}``;
    an option whose failure rate consumes all forward progress (the
    Young validity bound) comes back ``feasible=False`` with infinite
    cost rather than raising, so the broker can simply rank it last.
    """
    if remaining_work_node_seconds < 0:
        raise CostModelError("remaining work must be >= 0")
    if progress_rate_nodes <= 0:
        return {
            "wall_seconds": math.inf,
            "dollars": math.inf,
            "tau_seconds": None,
            "feasible": False,
        }
    base_wall = remaining_work_node_seconds / progress_rate_nodes
    wall = base_wall
    model = CheckpointRestartModel(
        checkpoint_seconds=checkpoint_seconds,
        restart_seconds=restart_seconds,
        failure_rate_per_hour=spike_probability_per_hour * spot_nodes,
    )
    tau = checkpoint_interval(model, base_wall)
    if tau is not None:
        try:
            wall = model.expected_wall_seconds(max(base_wall, 1e-9), tau)
        except CostModelError:
            return {
                "wall_seconds": math.inf,
                "dollars": math.inf,
                "tau_seconds": tau,
                "feasible": False,
            }
    wall += switch_seconds
    hourly = spot_nodes * spot_node_hourly + ondemand_nodes * ondemand_node_hourly
    return {
        "wall_seconds": wall,
        "dollars": hourly * wall / 3600.0,
        "tau_seconds": tau,
        "feasible": True,
    }
