"""High-level convenience API.

The two calls a downstream user actually wants:

* :func:`compare_platforms` — run the deployment pipeline for one
  application/size across all four platforms and get the expense
  reports;
* :func:`best_platform` — the ranked recommendation under the user's
  time/cost/effort priorities.
"""

from __future__ import annotations

from repro.errors import ExperimentError, ReproError
from repro.apps.workload import NS_WORKLOAD, RD_WORKLOAD, AppWorkload
from repro.core.deployment import DeploymentReport, deploy_and_run
from repro.costs.analysis import ExpenseReport, expense_report, rank_platforms
from repro.platforms.catalog import all_platforms
from repro.platforms.spec import PlatformSpec

_WORKLOADS = {
    "rd": RD_WORKLOAD,
    "ns": NS_WORKLOAD,
    RD_WORKLOAD.name: RD_WORKLOAD,
    NS_WORKLOAD.name: NS_WORKLOAD,
}


def workload_by_name(name: str) -> AppWorkload:
    """'rd' / 'ns' (or a workload's model name) -> the workload model."""
    try:
        return _WORKLOADS[name.lower()]
    except KeyError:
        raise ExperimentError(
            f"unknown application {name!r}; choose from {sorted(_WORKLOADS)}"
        ) from None


def compare_platforms(
    app: str = "rd",
    num_ranks: int = 64,
    num_iterations: int = 100,
    platforms: list[PlatformSpec] | None = None,
) -> tuple[list[DeploymentReport], list[ExpenseReport]]:
    """Deploy the app everywhere it fits; expense-report everything.

    Returns ``(deployments, expenses)``: deployments only for feasible
    platforms, expense reports for all (infeasible ones flagged).
    """
    workload = workload_by_name(app)
    if platforms is None:
        platforms = all_platforms()
    deployments: list[DeploymentReport] = []
    expenses: list[ExpenseReport] = []
    for platform in platforms:
        try:
            report = deploy_and_run(
                platform, workload, num_ranks, num_iterations=num_iterations
            )
        except ReproError:
            expenses.append(
                expense_report(platform, num_ranks, runtime_s=0.0)
            )
            continue
        deployments.append(report)
        expenses.append(
            expense_report(platform, num_ranks, runtime_s=report.runtime_s)
        )
    return deployments, expenses


def best_platform(
    app: str = "rd",
    num_ranks: int = 64,
    num_iterations: int = 100,
    time_weight: float = 1.0,
    cost_weight: float = 1.0,
    effort_weight: float = 1.0,
) -> ExpenseReport:
    """The top-ranked feasible platform under the given priorities."""
    _deployments, expenses = compare_platforms(app, num_ranks, num_iterations)
    ranked = rank_platforms(
        expenses,
        time_weight=time_weight,
        cost_weight=cost_weight,
        effort_weight=effort_weight,
    )
    feasible = [r for r in ranked if r.feasible]
    if not feasible:
        raise ReproError(
            f"no platform can run {num_ranks} ranks of {app!r}"
        )
    return feasible[0]
