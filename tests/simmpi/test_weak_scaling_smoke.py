"""p = 1000 weak-scaling smoke: the paper's top rank count, by work count.

The event engine's reason to exist is the Fig. 4-7 axis: p = 1, 8, 27,
... 1000 executed, not modeled.  This smoke test runs a tiny per-rank
workload (the communication skeleton of one sweep step) at the full
p = 1000 on one scheduler and bounds the *work* a launch does, so the
fast CI tier fails deterministically on what would push the big sweeps
back into impractical territory: a per-rank rebuild of a group-wide
table (O(p^2) placement lookups) or observer work paid with the
observers off.  Wall time is the benchmark's job (``benchmarks/perf``).
"""

from repro.network.model import GIGABIT_ETHERNET, NetworkModel
from repro.network.topology import ClusterTopology
from repro.simmpi import run_spmd
from repro.simmpi.tracing import EventLog

#: Placement lookups allowed per rank and per message.  Two per message
#: (source and destination node) is what resolving nothing ahead costs;
#: a p-entry table rebuilt by each of p ranks is 1000x over at p = 1000.
LOOKUPS_PER_UNIT = 2


class CountingTopology(ClusterTopology):
    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0

    def node_of_rank(self, rank):
        self.lookups += 1
        return super().node_of_rank(rank)


def test_p1000_sweep_step_within_budget(monkeypatch):
    p = 1000
    topology = CountingTopology(32, 32, NetworkModel(GIGABIT_ETHERNET))
    logs = []

    def counted_log():
        logs.append(EventLog())
        return logs[-1]

    monkeypatch.setattr("repro.simmpi.launcher.EventLog", counted_log)

    def main(comm):
        comm.compute(1e-6, label="tiny-mesh-step")
        total = comm.allreduce(1)
        comm.barrier()
        return total

    result = run_spmd(
        main, p, topology=topology, engine="events", real_timeout=300.0
    )

    assert result.returns == [p] * p
    assert result.num_ranks == p
    assert max(result.clocks) > 0.0
    messages = sum(result.messages_sent)
    assert messages > p
    assert topology.lookups <= LOOKUPS_PER_UNIT * (p + messages), (
        f"{topology.lookups} node_of_rank calls for {p} ranks and "
        f"{messages} messages: something group-wide is rebuilt per rank"
    )
    assert not logs and not result.tracer.log.ranks(), (
        "an event log was built or written with every observer off"
    )
