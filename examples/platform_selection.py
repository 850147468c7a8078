"""Selecting a 'utility provider': the paper's abstract as an API call.

"Our experiences may provide an example preview into what developers
and users can expect when selecting a 'utility provider' and specific
instance thereof for a particular run of their application."

This example asks the assembly broker about three scenarios — a small
exploratory run, the production-size run, and the 1000-core capability
run — under different user priorities.  The broker's ranked portfolio
is the one platform scorer; porting effort shows as each plan's
``provision`` phase.

Run:  python examples/platform_selection.py
"""

from repro.broker import BrokerRequest, broker_assemblies, render_broker_report
from repro.core.characterization import render_table1
from repro.core.reporting import ascii_table

PRIORITIES = {
    # (cost, time, risk) weights
    "time-critical": (0.0, 1.0, 0.0),
    "budget-critical": (1.0, 0.0, 0.0),
    "balanced": (1.0, 1.0, 1.0),
}


def scenario(app: str, ranks: int, label: str) -> None:
    print(f"\n=== {label}: {app.upper()} on {ranks} ranks ===")
    report = broker_assemblies(
        BrokerRequest(app=app, num_ranks=ranks, num_iterations=200)
    )
    rows = []
    for plan in report.plans:
        if plan.feasible:
            rows.append([
                plan.name,
                f"{plan.phase('queue').time_s / 3600:.2f}",
                f"{plan.phase('compute').time_s / 60:.1f}",
                f"{plan.cost_dollars:.2f}",
                f"{plan.phase('provision').cost_dollars:.0f}",
            ])
        else:
            rows.append([plan.name, "-", "-", "-", plan.reason])
    print(ascii_table(
        ["plan", "wait [h]", "run [min]", "cost [$]", "porting [$] / why not"],
        rows,
    ))

    for name, (cost, time, risk) in PRIORITIES.items():
        ranked = broker_assemblies(BrokerRequest(
            app=app, num_ranks=ranks, num_iterations=200,
            cost_weight=cost, time_weight=time, risk_weight=risk,
        ))
        order = [p.name for p in ranked.plans if p.acceptable]
        print(f"  {name:>15}: pick {order[0]}  (full order: {' > '.join(order)})")


def main() -> None:
    print("Table I - the four heterogeneous target platforms:\n")
    print(render_table1())

    scenario("rd", 8, "exploratory run")
    scenario("ns", 125, "production run")
    scenario("rd", 1000, "capability run")

    print("\nThe capability run reproduces §VIII: only the cloud provider")
    print("offers enough cores for the biggest, 1000-core task.\n")
    print(render_broker_report(
        broker_assemblies(BrokerRequest(app="rd", num_ranks=1000)), top=2
    ))


if __name__ == "__main__":
    main()
