"""Metamorphic properties of the one platform advisor.

The broker's ranked portfolio is the only answer to "which platform,
bought how?", so its answers must move sensibly when the question does:
a looser constraint only ever admits plans, the expected cost of the
work left only grows with the work left, and the elastic refinement of
the spot mix agrees with the static plan when nothing is reclaimed.
"""

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.broker.assembly import (
    SPOT_MIX,
    BrokerRequest,
    ElasticBroker,
    broker_assemblies,
)
from repro.perfmodel.resilience import expected_cost_to_go

HOUR = 3600.0
weights = st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.0))


@st.composite
def requests(draw) -> BrokerRequest:
    return BrokerRequest(
        app=draw(st.sampled_from(("rd", "ns"))),
        num_ranks=draw(st.integers(1, 1100)),
        num_iterations=draw(st.integers(1, 2000)),
        deadline_s=draw(st.none() | st.floats(0.05 * HOUR, 48 * HOUR)),
        budget_dollars=draw(st.none() | st.floats(0.01, 500.0)),
        max_interruption_probability=draw(st.none() | st.floats(0.0, 1.0)),
        spot_spike_probability=draw(st.floats(0.0, 0.2)),
        cost_weight=draw(weights),
        time_weight=draw(weights),
        risk_weight=draw(weights),
        seed=draw(st.integers(0, 50)),
    )


def _acceptable(report) -> set[str]:
    return {plan.name for plan in report.plans if plan.acceptable}


def _winner(report) -> str | None:
    top = report.plans[0]
    return top.name if top.acceptable else None


def _assert_relaxation_only_admits(before, after) -> None:
    """A looser request keeps every acceptable plan, and its winner is
    either the old winner or a plan the looser request newly admitted."""
    old, new = _acceptable(before), _acceptable(after)
    assert old <= new
    winner = _winner(after)
    if _winner(before) is not None and winner != _winner(before):
        assert winner not in old


class TestLooserConstraints:
    @settings(max_examples=120, deadline=None)
    @given(request=requests(), factor=st.none() | st.floats(1.0, 20.0))
    @example(  # lifting the budget once moved the winner puma -> ec2-mix
        request=BrokerRequest(
            app="ns", num_ranks=33, num_iterations=401, budget_dollars=6.0,
            spot_spike_probability=0.125,
            cost_weight=0.25, time_weight=0.25, risk_weight=0.25, seed=0,
        ),
        factor=None,
    )
    def test_raising_the_budget(self, request, factor):
        budget = request.budget_dollars
        looser = replace(
            request,
            budget_dollars=None if factor is None or budget is None
            else budget * factor,
        )
        _assert_relaxation_only_admits(
            broker_assemblies(request), broker_assemblies(looser)
        )

    @settings(max_examples=120, deadline=None)
    @given(request=requests(), factor=st.none() | st.floats(1.0, 20.0))
    @example(  # lifting the deadline once moved the winner ec2 -> lagrange
        request=BrokerRequest(
            app="ns", num_ranks=33, num_iterations=29, deadline_s=3949.0,
            spot_spike_probability=0.0,
            cost_weight=0.25, time_weight=0.25, risk_weight=0.0, seed=0,
        ),
        factor=None,
    )
    def test_raising_the_deadline(self, request, factor):
        deadline = request.deadline_s
        looser = replace(
            request,
            deadline_s=None if factor is None or deadline is None
            else deadline * factor,
        )
        _assert_relaxation_only_admits(
            broker_assemblies(request), broker_assemblies(looser)
        )


class TestCostToGo:
    @settings(max_examples=300, deadline=None)
    @given(
        work=st.floats(0.0, 1e7),
        more=st.floats(0.0, 1e7),
        rate=st.floats(0.5, 100.0),
        spot=st.integers(0, 64),
        ondemand=st.integers(0, 64),
        spike=st.floats(0.0, 0.3),
        checkpoint=st.floats(0.0, 300.0),
        restart=st.floats(0.0, 600.0),
        switch=st.floats(0.0, 1200.0),
    )
    def test_non_decreasing_in_remaining_work(
        self, work, more, rate, spot, ondemand, spike, checkpoint, restart,
        switch,
    ):
        def togo(remaining):
            return expected_cost_to_go(
                remaining_work_node_seconds=remaining,
                progress_rate_nodes=rate,
                spot_nodes=spot,
                ondemand_nodes=ondemand,
                spot_node_hourly=0.54,
                ondemand_node_hourly=2.40,
                spike_probability_per_hour=spike,
                checkpoint_seconds=checkpoint,
                restart_seconds=restart,
                switch_seconds=switch,
            )

        less, most = togo(work), togo(work + more)
        # An option that cannot finish the smaller job cannot finish more.
        assert less["feasible"] or not most["feasible"]
        assert less["wall_seconds"] <= most["wall_seconds"] * (1 + 1e-12)
        assert less["dollars"] <= most["dollars"] * (1 + 1e-12)


class TestElasticRefinesTheStaticPlan:
    @settings(max_examples=40, deadline=None)
    @given(
        app=st.sampled_from(("rd", "ns")),
        num_ranks=st.integers(1, 1000),
        num_iterations=st.integers(1, 2000),
        seed=st.integers(0, 10_000),
    )
    def test_no_reclaim_run_costs_the_static_plan_to_the_cent(
        self, app, num_ranks, num_iterations, seed
    ):
        request = BrokerRequest(
            app=app, num_ranks=num_ranks, num_iterations=num_iterations,
            spot_spike_probability=0.0, seed=seed,
        )
        elastic = ElasticBroker(request).run()
        (static,) = [p for p in broker_assemblies(request).plans
                     if p.name == SPOT_MIX]
        assert not elastic.decisions
        assert abs(elastic.cost_dollars - static.cost_dollars) < 0.005
