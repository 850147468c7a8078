"""Run-length schedule shapes against the per-round builders they replaced.

A :class:`~repro.simmpi.collectives.ScheduleShape` is a tuple of runs
(a ring of any size is one); the oracle below is the per-round form the
library used before — one ``CollRound`` object per round, costs and
shape properties summed round by round.  The arithmetic is unchanged
(a run of ``n`` equal terms is still ``n`` sequential additions), so
every comparison here is ``==``, never ``approx``: selections drive the
simulator's algorithm choice and predictions are rendered into pinned
artifact text.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.workload import NS_WORKLOAD, RD_WORKLOAD, paper_rank_series
from repro.cloud.placement import CROSS_GROUP_BANDWIDTH_PENALTY
from repro.harness.experiments import weak_scaling_column
from repro.network.model import TEN_GIGABIT_ETHERNET, NetworkModel
from repro.network.topology import ClusterTopology
from repro.perfmodel.phases import PhaseModel, priced_allreduce
from repro.platforms.catalog import all_platforms, ec2_cc28xlarge
from repro.simmpi import collectives as coll
from repro.simmpi.collectives import (
    CollRound,
    binomial_rounds,
    mask_is_intranode,
    recursive_doubling_plan,
)
from repro.simmpi.selector import PER_ROUND_OVERHEAD, CollectiveSelector, Selection

#: Every schedule name ``allreduce_shape`` accepts, in the order
#: ``allreduce_candidates`` lists them.
ALLREDUCE_ALGORITHMS = (
    "recursive_doubling", "ring", "rabenseifner", *coll.HIER_ALLREDUCE_ALGORITHMS
)

# -- the oracle: one CollRound per round ----------------------------------------


def _rd_rounds(size, nbytes, c):
    pof2, masks = recursive_doubling_plan(size)
    fold = size != pof2
    fold_internode = size > c
    rounds = []
    if fold:
        rounds.append(CollRound(nbytes, fold_internode, flows=float(c)))
    for mask in masks:
        intra = mask_is_intranode(mask, size, c)
        rounds.append(CollRound(nbytes, not intra, flows=1.0 if intra else float(c)))
    if fold:
        rounds.append(CollRound(nbytes, fold_internode, flows=float(c)))
    return rounds


def _ring_allreduce_rounds(size, nbytes, c):
    if size == 1:
        return []
    segment = nbytes / size
    internode = size > c
    return [
        CollRound(segment, internode, flows=1.0) for _ in range(2 * (size - 1))
    ]


def _rabenseifner_rounds(size, nbytes, c):
    pof2, masks = recursive_doubling_plan(size)
    fold = size != pof2
    fold_internode = size > c
    rounds = []
    if fold:
        rounds.append(CollRound(nbytes, fold_internode, flows=float(c)))
    for mask in reversed(masks):
        intra = mask_is_intranode(mask, size, c)
        payload = nbytes * mask / pof2
        rounds.append(CollRound(payload, not intra, flows=1.0 if intra else float(c)))
    for mask in masks:
        intra = mask_is_intranode(mask, size, c)
        payload = nbytes * mask / pof2
        rounds.append(CollRound(payload, not intra, flows=1.0 if intra else float(c)))
    if fold:
        rounds.append(CollRound(nbytes, fold_internode, flows=float(c)))
    return rounds


def _hier_allreduce_rounds(inter_algorithm, size, nbytes, c):
    leaders = -(-size // c)
    intra = binomial_rounds(c)
    rounds = [CollRound(nbytes, internode=False) for _ in range(intra)]
    rounds.extend(oracle_allreduce_rounds(inter_algorithm, leaders, nbytes, 1))
    rounds.extend(CollRound(nbytes, internode=False) for _ in range(intra))
    return rounds


def oracle_allreduce_rounds(algorithm, size, nbytes, ranks_per_node=1):
    c = coll.effective_ranks_per_node(size, ranks_per_node)
    if algorithm == "recursive_doubling":
        return _rd_rounds(size, nbytes, c)
    if algorithm == "ring":
        return _ring_allreduce_rounds(size, nbytes, c)
    if algorithm == "rabenseifner":
        return _rabenseifner_rounds(size, nbytes, c)
    assert algorithm in coll.HIER_ALLREDUCE_ALGORITHMS, algorithm
    return _hier_allreduce_rounds(algorithm[len("hier_"):], size, nbytes, c)


def oracle_properties(rounds):
    """(round_count, internode_round_count, bytes_per_rank)."""
    return (
        len(rounds),
        sum(1 for r in rounds if r.internode),
        float(sum(r.nbytes for r in rounds)),
    )


class OracleSelector(CollectiveSelector):
    """The selector pricing one round at a time."""

    def cost(self, rounds):
        network = self.topology.network
        total = 0.0
        for r in rounds:
            link = network.internode if r.internode else network.intranode
            flows = r.flows if r.internode else 1.0
            total += PER_ROUND_OVERHEAD + link.latency + r.nbytes * flows / link.bandwidth
        return total

    def _costed(self, algorithm, nbytes):
        rounds = oracle_allreduce_rounds(
            algorithm, self.size, nbytes, self.ranks_per_node
        )
        count, internode_count, bytes_per_rank = oracle_properties(rounds)
        return Selection(
            algorithm=algorithm,
            nbytes=int(nbytes),
            predicted_seconds=self.cost(rounds),
            rounds=count,
            internode_rounds=internode_count,
            bytes_per_rank=bytes_per_rank,
        )


class OraclePhaseModel(PhaseModel):
    """The phase model with the per-round allreduce term."""

    def _allreduce_time(self, topo, num_ranks, count):
        if num_ranks == 1 or count <= 0:
            return 0.0
        chosen = OracleSelector(topo, num_ranks).select_allreduce(
            int(self.workload.allreduce_bytes)
        )
        rounds = oracle_allreduce_rounds(
            chosen.algorithm,
            num_ranks,
            self.workload.allreduce_bytes,
            ranks_per_node=topo.cores_per_node,
        )
        per_call = 0.0
        for r in rounds:
            link = topo.network.internode if r.internode else topo.network.intranode
            flows = r.flows if r.internode else 1.0
            per_call += 2.0 * link.latency + r.nbytes * flows / link.bandwidth
        return count * per_call


# -- shapes -----------------------------------------------------------------------

ODD_SIZES = (1, 2, 3, 5, 7, 12, 13, 24, 31, 33, 97, 100, 127, 129, 360, 997, 1000, 1200)
PAYLOADS = (0, 8, 24, 24.5, 1e6 / 3, 1 << 20)


def expand(shape):
    return [
        CollRound(r.nbytes, r.internode, r.flows)
        for r in shape.rounds
        for _ in range(r.count)
    ]


@given(
    algorithm=st.sampled_from(ALLREDUCE_ALGORITHMS),
    size=st.sampled_from(ODD_SIZES) | st.integers(1, 1200),
    ranks_per_node=st.sampled_from([1, 2, 4, 12, 16, 32]),
    nbytes=st.sampled_from(PAYLOADS)
    | st.floats(0, 1 << 20, allow_nan=False, allow_subnormal=False),
)
@settings(max_examples=400, deadline=None)
def test_runs_expand_to_the_oracle_rounds(algorithm, size, ranks_per_node, nbytes):
    shape = coll.allreduce_shape(algorithm, size, nbytes, ranks_per_node)
    rounds = oracle_allreduce_rounds(algorithm, size, nbytes, ranks_per_node)
    assert all(r.count >= 1 for r in shape.rounds)
    assert expand(shape) == rounds
    assert (
        shape.round_count,
        shape.internode_round_count,
        shape.bytes_per_rank,
    ) == oracle_properties(rounds)
    topology = ClusterTopology(
        -(-size // ranks_per_node), ranks_per_node, NetworkModel(TEN_GIGABIT_ETHERNET)
    )
    selector = OracleSelector(topology, size, ranks_per_node=ranks_per_node)
    assert CollectiveSelector.cost(selector, shape) == selector.cost(rounds)


# -- selections and predictions on the catalog ------------------------------------


def catalog_points():
    for platform in all_platforms():
        model = PhaseModel(RD_WORKLOAD, platform)
        for p in paper_rank_series(1000):
            yield platform, p, model._topology(p)


def test_every_catalog_selection_equals_the_oracle():
    for platform, p, topology in catalog_points():
        runs, rounds = CollectiveSelector(topology, p), OracleSelector(topology, p)
        for nbytes in (8, 24, 1024, 65536, 1 << 20):
            where = (platform.name, p, nbytes)
            for segmentable in (True, False):
                assert runs.allreduce_candidates(nbytes, segmentable) == \
                    rounds.allreduce_candidates(nbytes, segmentable), where
                assert runs.select_allreduce(nbytes, segmentable) == \
                    rounds.select_allreduce(nbytes, segmentable), where


def test_selector_and_model_agree_on_ranks_per_node():
    """The model prices the shape with the selector's own node occupancy;
    before, it re-derived it from ``cores_per_node``.  Same value at
    every catalog point, so passing the one through changed nothing."""
    points = [(p, topo) for _, p, topo in catalog_points() if p > 1]
    assert len(points) == 36
    for p, topology in points:
        assert CollectiveSelector(topology, p).ranks_per_node == \
            coll.effective_ranks_per_node(p, topology.cores_per_node)


@pytest.mark.parametrize("workload", [RD_WORKLOAD, NS_WORKLOAD], ids=lambda w: w.name)
@pytest.mark.parametrize("fused_solver", [False, True])
def test_every_catalog_prediction_equals_the_oracle(workload, fused_solver):
    """Priced through an empty memo, again through a full one, and per round."""
    series = paper_rank_series(1000)
    for platform in all_platforms():
        runs = PhaseModel(workload, platform, fused_solver=fused_solver)
        rounds = OraclePhaseModel(workload, platform, fused_solver=fused_solver)
        priced_allreduce.cache_clear()
        cold = [runs.predict(p) for p in series]
        warm = [runs.predict(p) for p in series]
        assert priced_allreduce.cache_info().hits >= len(series) - 1
        assert cold == warm == [rounds.predict(p) for p in series], platform.name
        nbytes = int(runs.workload.allreduce_bytes)
        for p in series[1:]:
            oracle = OracleSelector(runs._topology(p), p).select_allreduce(nbytes)
            assert runs._priced(runs._topology(p), p)[0] == oracle, (
                platform.name, p)


# -- counts, not stopwatches ------------------------------------------------------


@pytest.fixture
def rounds_built(monkeypatch):
    """Every ``CollRound`` the library constructs while the test runs."""
    built = []

    def counting(*args, **kwargs):
        built.append(CollRound(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(coll, "CollRound", counting)
    return built


def test_pricing_a_million_ranks_builds_a_handful_of_rounds(rounds_built):
    """Per round this is ~2 x 10^6 objects per ring candidate."""
    size = 10**6
    topology = ClusterTopology(size // 16, 16, NetworkModel(TEN_GIGABIT_ETHERNET))
    candidates = CollectiveSelector(topology, size).allreduce_candidates(1 << 20)
    assert [c.algorithm for c in candidates] == list(ALLREDUCE_ALGORITHMS)
    ring = candidates[1]
    assert ring.rounds == 2 * (size - 1)
    assert len(rounds_built) < 200


def test_one_weak_scaling_column_builds_under_a_thousand_rounds(rounds_built):
    """6 974 per-round objects before, for the ec2 column of fig4, priced cold."""
    priced_allreduce.cache_clear()
    weak_scaling_column(RD_WORKLOAD.name, "ec2")
    assert 0 < len(rounds_built) < 1000


def test_a_second_identical_column_builds_no_rounds(rounds_built):
    """Every collective price of the column is a memo hit the second time."""
    weak_scaling_column(RD_WORKLOAD.name, "ec2")
    first = len(rounds_built)
    weak_scaling_column(RD_WORKLOAD.name, "ec2")
    assert len(rounds_built) == first


def test_links_that_differ_only_in_bandwidth_never_share_an_entry():
    """Table II's mix assemblies scale the ec2 link per seed: same name,
    same rank count, a different bandwidth, so a different price."""
    base = ec2_cc28xlarge.interconnect
    a, b = (
        base.scaled(bandwidth_factor=1.0 - CROSS_GROUP_BANDWIDTH_PENALTY * f)
        for f in (0.25, 0.5)
    )
    assert (a.name, a.latency) == (b.name, b.latency) and a.bandwidth != b.bandwidth
    priced_allreduce.cache_clear()
    prices, oracle = [], []
    for link in (a, b, a, b):
        topo = ClusterTopology(63, 16, NetworkModel(link))
        model = PhaseModel(RD_WORKLOAD, ec2_cc28xlarge, topology=topo)
        prices.append(model._allreduce_time(topo, 1000, 1.0))
        oracle.append(OraclePhaseModel(RD_WORKLOAD, ec2_cc28xlarge, topology=topo)
                      ._allreduce_time(topo, 1000, 1.0))
    info = priced_allreduce.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
    assert prices == oracle
    assert prices[0] == prices[2] != prices[1] == prices[3]


def test_a_ring_is_at_most_one_run():
    for p in range(1, 1201):
        shape = coll.allreduce_shape("ring", p, 24.0, ranks_per_node=16)
        assert len(shape.rounds) == min(p - 1, 1)
        assert shape.round_count == 2 * (p - 1)
