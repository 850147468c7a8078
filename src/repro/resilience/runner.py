"""Checkpoint/restart execution of either application's distributed time loop.

The paper ran bulk-synchronous FEM time loops on spot instances that
could vanish mid-run; the only recovery available in 2012 was the
classic one: checkpoint at step boundaries, and when a rank dies,
re-assemble the machine and resume from the latest checkpoint.  The
:class:`ResilientRunner` executes exactly that protocol against the
simmpi runtime:

1. run the problem's distributed step
   (:meth:`~repro.apps.stepping.DistributedStep.for_problem`) through
   the one time loop the plain SPMD drivers run
   (:meth:`~repro.apps.stepping.DistributedStep.run`), with a
   :class:`~repro.resilience.faults.FaultInjector` installed in the transport;
2. rank 0 writes a v2 restart checkpoint (the solver's restart state:
   BDF histories + clock + counters, :func:`repro.io.checkpoint.save_state`)
   every ``checkpoint_every`` steps, *before* the step's kill gate — so
   a kill at step ``s`` always finds the state at ``s`` persisted;
3. a kill surfaces as :class:`~repro.errors.RankFailedError` out of
   ``run_spmd``; the runner "replaces the host" (revives the rank id),
   applies capped exponential backoff (modeled, not slept), restores
   from the checkpoint and resumes;
4. when the retry budget runs out, a typed
   :class:`~repro.errors.RetriesExhaustedError` carries the attempt
   count and the failed ranks.

Restart accounting (restarts, lost step-executions, overhead fraction)
feeds :mod:`repro.core.reporting`; the golden tests in
``tests/resilience`` assert the resumed trajectory is *bit-exact*
against an uninterrupted run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.errors import RankFailedError, ReproError, RetriesExhaustedError
from repro.apps.stepping import DistributedStep, StepRecord
from repro.io.checkpoint import load_state, save_state
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.simmpi.launcher import run_spmd

#: Capped exponential backoff between restart attempts, in seconds.  The
#: delay is *modeled* (recorded in :class:`RestartStats`), never slept:
#: virtual time is the only clock the experiments read.
BACKOFF_BASE_S = 1.0
BACKOFF_CAP_S = 60.0


@dataclass
class RestartStats:
    """Restart accounting for one resilient run."""

    attempts: int = 0
    restarts: int = 0
    reclaim_restarts: int = 0  # reclaim-driven restarts (no backoff penalty)
    completed_steps: int = 0
    executed_steps: int = 0  # step-executions, including redone ones
    checkpoints_written: int = 0
    backoff_seconds: list[float] = field(default_factory=list)
    failed_ranks: list[int] = field(default_factory=list)

    @property
    def lost_steps(self) -> int:
        """Step-executions whose progress a failure threw away."""
        return self.executed_steps - self.completed_steps

    @property
    def overhead_fraction(self) -> float:
        """Extra step-executions per useful step (0.0 = failure-free)."""
        if self.completed_steps == 0:
            return 0.0
        return self.lost_steps / self.completed_steps


@dataclass(frozen=True)
class ResilientRunResult:
    """Outcome of a resilient run: the solver's physics plus the restart ledger."""

    solution: np.ndarray
    t: float
    records: list[StepRecord]
    stats: RestartStats
    nodal_error: float


class ResilientRunner:
    """Run a distributed time loop to completion despite injected faults.

    Parameters
    ----------
    problem:
        The problem to solve; its type picks the distributed step
        (:meth:`~repro.apps.stepping.DistributedStep.for_problem`).
    num_ranks:
        SPMD width (bounded by the mesh's z-plane count, as for the
        plain SPMD drivers).
    plan:
        The :class:`FaultPlan` to execute; ``None`` means a fault-free
        run (the protocol still checkpoints).
    checkpoint_every:
        Step cadence of rank 0's restart checkpoints.
    checkpoint_dir:
        Directory for the checkpoint file (required; tests pass tmp_path).
    max_retries:
        Restart budget: how many failures may be absorbed before
        :class:`~repro.errors.RetriesExhaustedError`.

    The step runs its ``DEFAULT_PRECONDITIONER`` at its ``TOL``.
    """

    def __init__(
        self,
        problem,
        num_ranks: int,
        plan: FaultPlan | None = None,
        checkpoint_every: int = 2,
        checkpoint_dir: str | Path | None = None,
        max_retries: int = 5,
        real_timeout: float = 120.0,
        obs=None,
    ):
        if checkpoint_every < 1:
            raise ReproError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {max_retries}")
        if checkpoint_dir is None:
            raise ReproError("ResilientRunner needs a checkpoint_dir")
        self.step_class = DistributedStep.for_problem(problem)
        self.problem = problem
        self.num_ranks = num_ranks
        self.plan = plan or FaultPlan()
        self.injector = FaultInjector(self.plan)
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = Path(checkpoint_dir) / "restart.ckpt"
        self.checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
        self.max_retries = max_retries
        self.real_timeout = real_timeout
        self.obs = obs

    def _metrics(self):
        """The hub's metrics registry, or None when not observed."""
        if self.obs is None or not self.obs.config.enabled:
            return None
        return self.obs.metrics

    # -- restart driver -----------------------------------------------------

    def run(self) -> ResilientRunResult:
        """Drive attempts until the time loop completes or the budget dies."""
        stats = RestartStats()
        # Each run() is a fresh computation: a checkpoint left behind by
        # a previous run in the same directory must not hijack attempt 1.
        self.checkpoint_path.unlink(missing_ok=True)
        # Shared across attempts (rank threads live in this process):
        # per-step records survive a failed attempt, so only the steps
        # after the last checkpoint are ever recomputed.
        shared: dict = {"records": {}, "final": None}
        metrics = self._metrics()
        while True:
            stats.attempts += 1
            if metrics is not None:
                metrics.counter("resilience_attempts_total").inc()
            try:
                run_spmd(
                    target=self._attempt_body,
                    num_ranks=self.num_ranks,
                    args=(shared, stats),
                    fault_injector=self.injector,
                    real_timeout=self.real_timeout,
                    observability=self.obs,
                )
            except RankFailedError as exc:
                stats.failed_ranks.append(exc.rank)
                if metrics is not None:
                    metrics.counter("resilience_rank_failures_total").inc(
                        labels={"rank": exc.rank}
                    )
                if stats.restarts >= self.max_retries:
                    raise RetriesExhaustedError(
                        f"retry budget of {self.max_retries} exhausted after "
                        f"{stats.attempts} attempts (failed ranks: "
                        f"{stats.failed_ranks})",
                        attempts=stats.attempts,
                        failed_ranks=list(stats.failed_ranks),
                    ) from exc
                stats.restarts += 1
                if exc.kind == "spot_reclaim":
                    # A reclaim is a market event, not a software fault:
                    # the replacement capacity is provisioned immediately
                    # (and the elastic broker treats the event as a
                    # re-plan candidate, docs/elasticity.md), so no
                    # backoff penalty accrues and the fault-driven
                    # exponential schedule is left untouched.
                    stats.reclaim_restarts += 1
                    backoff = 0.0
                else:
                    fault_restarts = stats.restarts - stats.reclaim_restarts
                    backoff = min(
                        BACKOFF_BASE_S * 2.0 ** (fault_restarts - 1),
                        BACKOFF_CAP_S,
                    )
                stats.backoff_seconds.append(backoff)
                if metrics is not None:
                    metrics.counter("resilience_restarts_total").inc()
                    metrics.histogram("resilience_backoff_seconds").observe(backoff)
                # "Replace the host": the rank id is reused by a fresh
                # instance; consumed fault events stay consumed.
                self.injector.reset_liveness()
                continue
            break

        solution, t, nodal_error = shared["final"]
        records = [shared["records"][s] for s in range(self.problem.num_steps)]
        stats.completed_steps = self.problem.num_steps
        if metrics is not None:
            metrics.gauge("resilience_completed_steps").set(stats.completed_steps)
            metrics.gauge("resilience_executed_steps").set(stats.executed_steps)
            metrics.gauge("resilience_lost_steps").set(stats.lost_steps)
            metrics.gauge("resilience_overhead_fraction").set(
                stats.overhead_fraction
            )
        return ResilientRunResult(
            solution=solution,
            t=t,
            records=records,
            stats=stats,
            nodal_error=nodal_error,
        )

    # -- the SPMD body (one attempt) ----------------------------------------

    def _attempt_body(self, comm, shared: dict, stats: RestartStats):
        """One attempt of the distributed time loop with fault hooks.

        The plain drivers' loop, plus the injector's step/phase gates,
        rank 0's checkpoint writes and the per-step records.
        """
        injector = self.injector
        rank = comm.rank
        metrics = self._metrics()

        step = self.step_class(comm, self.problem)
        solver = step.solver
        # Resume point: every rank reads the (process-local) checkpoint
        # file; the state is replicated, so no broadcast is needed and
        # the restored trajectory is identical on all ranks.
        if self.checkpoint_path.exists():
            load_start = time.perf_counter()
            load_state(self.checkpoint_path, solver)
            if metrics is not None:
                metrics.histogram("checkpoint_load_seconds").observe(
                    time.perf_counter() - load_start, rank=rank
                )

        def before_step(s: int) -> None:
            if rank == 0 and s % self.checkpoint_every == 0:
                # Persist BEFORE the kill gate: a reclaim at step s must
                # still find the state entering step s on disk.
                save_start = time.perf_counter()
                save_state(self.checkpoint_path, solver)
                stats.checkpoints_written += 1
                if metrics is not None:
                    metrics.histogram("checkpoint_save_seconds").observe(
                        time.perf_counter() - save_start, rank=rank
                    )
                    metrics.counter("checkpoints_written_total").inc(rank=rank)
            injector.begin_step(s, rank)

        def on_record(record: StepRecord) -> None:
            if rank == 0:
                shared["records"][record.step] = record
                stats.executed_steps += 1

        step.run(
            self.problem.num_steps - solver.steps_taken,
            before_step=before_step,
            gate=partial(injector.enter_phase, rank),
            on_record=on_record,
        )
        if rank == 0:
            shared["final"] = (solver.solution, solver.t, solver.nodal_error())
        return solver.solution[step.ownership[rank]]
