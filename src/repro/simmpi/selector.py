"""Topology- and size-adaptive collective algorithm selection.

MPI implementations switch collective algorithms by communicator size
and message size (MPICH's ``MPIR_CVAR_ALLREDUCE_*`` thresholds, Open
MPI's ``coll/tuned`` decision tables).  simmpi does the same, but
*derives* the decision instead of hard-coding thresholds: every
candidate :class:`~repro.simmpi.collectives.ScheduleShape` is priced
against the platform's alpha-beta links (:mod:`repro.network.model`)
with NIC-contention flow counts from :mod:`repro.network.contention`,
and the cheapest schedule wins.  Only the allreduce has a menu: broadcast
and reduce always run the binomial tree.

The selection is a pure function of ``(communicator size, message
bytes, topology)`` — every rank computes the same answer with
no extra communication, which is what keeps SPMD ranks in lockstep and
the serial-vs-parallel bit-identity guarantee intact.  The resulting
per-interconnect decision tables are documented in
``docs/collectives.md`` and pinned row for row by
``tests/simmpi/test_adaptive_collectives.py``.

Because the answer depends only on the group and the topology, it is
held -- with the placement it is derived from and every per-rank peer
list the schedules need -- in one :class:`GroupPlan` per communicator
group, built once and read by all of the group's ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.network.contention import nic_sharing_factor
from repro.network.model import LinkModel
from repro.network.topology import ClusterTopology
from repro.simmpi import collectives as coll

#: Per-round CPU cost mirrored from the executed model: the sender's
#: SEND_OVERHEAD plus the receiver's RECV_OVERHEAD
#: (:mod:`repro.simmpi.comm` charges the same constants per message).
PER_ROUND_OVERHEAD = 1.0e-6

#: Relative margin a challenger must win by before it displaces an
#: earlier candidate — keeps the choice stable under float noise and
#: prefers the simplest algorithm on ties.
_TIE_MARGIN = 1e-9


@dataclass(frozen=True)
class Selection:
    """One costed allreduce candidate: the algorithm plus its modeled schedule."""

    algorithm: str
    nbytes: int
    predicted_seconds: float
    rounds: int
    internode_rounds: int
    bytes_per_rank: float


class CollectiveSelector:
    """Costs candidate schedules for one communicator on one topology.

    Parameters
    ----------
    topology:
        The platform the ranks are placed on.
    size:
        Communicator size (number of participating ranks).
    ranks_per_node:
        Override for the node occupancy (sub-communicators may occupy
        nodes more sparsely than block placement of ``size`` ranks
        suggests).  Defaults to the block-placement value via
        :func:`~repro.network.contention.nic_sharing_factor` with every
        flow off-node — a full pairwise exchange round keeps all of a
        node's ranks on the NIC at once.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        size: int,
        ranks_per_node: int | None = None,
    ):
        self.topology = topology
        self.size = int(size)
        if ranks_per_node is None:
            ranks_per_node = int(round(nic_sharing_factor(
                topology, self.size, offnode_fraction=1.0
            )))
        self.ranks_per_node = coll.effective_ranks_per_node(self.size, ranks_per_node)
        self._cache: dict[tuple, Selection] = {}

    # -- costing ------------------------------------------------------------

    def cost(self, shape: coll.ScheduleShape) -> float:
        """Modeled seconds for one schedule: per-round alpha + flows*n/beta."""
        network = self.topology.network
        total = 0.0
        for r in shape.rounds:
            link = network.internode if r.internode else network.intranode
            flows = r.flows if r.internode else 1.0
            per_round = PER_ROUND_OVERHEAD + link.latency + r.nbytes * flows / link.bandwidth
            total = coll.add_run(total, per_round, r.count)
        return total

    def _costed(self, algorithm: str, nbytes: int) -> Selection:
        shape = coll.allreduce_shape(algorithm, self.size, nbytes, self.ranks_per_node)
        return Selection(
            algorithm=algorithm,
            nbytes=int(nbytes),
            predicted_seconds=self.cost(shape),
            rounds=shape.round_count,
            internode_rounds=shape.internode_round_count,
            bytes_per_rank=shape.bytes_per_rank,
        )

    def _pick(self, candidates: list[Selection]) -> Selection:
        best = candidates[0]
        for challenger in candidates[1:]:
            if challenger.predicted_seconds < best.predicted_seconds * (1.0 - _TIE_MARGIN):
                best = challenger
        return best

    def _multinode(self) -> bool:
        return self.size > self.ranks_per_node

    # -- selection ----------------------------------------------------------

    def allreduce_candidates(
        self, nbytes: int, segmentable: bool = True
    ) -> list[Selection]:
        """All eligible costed allreduce candidates, stable order."""
        algorithms = ["recursive_doubling"]
        if segmentable and self.size > 1:
            algorithms += ["ring", "rabenseifner"]
        if self._multinode() and self.ranks_per_node > 1:
            algorithms.append("hier_recursive_doubling")
            if segmentable:
                algorithms += ["hier_ring", "hier_rabenseifner"]
        return [self._costed(a, nbytes) for a in algorithms]

    def select_allreduce(self, nbytes: int, segmentable: bool = True) -> Selection:
        """Cheapest allreduce schedule for a message of ``nbytes``.

        ``segmentable`` gates the reduce-scatter family (ring,
        Rabenseifner): those need an ndarray payload they can split
        into blocks; scalars and opaque objects only qualify for the
        whole-message algorithms.
        """
        key = (int(nbytes), bool(segmentable))
        hit = self._cache.get(key)
        if hit is None:
            hit = self._pick(self.allreduce_candidates(int(nbytes), segmentable))
            self._cache[key] = hit
        return hit

    def selection_table(self) -> list[dict]:
        """Chosen algorithm per message size — the ``docs/collectives.md`` tables."""
        rows = []
        for nbytes in (8, 1024, 65536, 1 << 20):
            chosen = self.select_allreduce(nbytes)
            rows.append(
                {
                    "nbytes": int(nbytes),
                    "allreduce": chosen.algorithm,
                    "predicted_seconds": chosen.predicted_seconds,
                }
            )
        return rows


class GroupPlan:
    """Placement and collective plans of one communicator group.

    One instance per group -- the world launch, each colour of a
    ``split`` -- registered in the engine under the group's context id
    before any member's :class:`~repro.simmpi.comm.Communicator` exists,
    and read by all of them: building it is the only O(group size) work
    a group ever does.  Everything here is a pure function of (group,
    topology) -- peer lists of (algorithm, position, size, root) too --
    so ranks consult it without communicating.  The placement is
    immutable; the memos (selector, peer lists, links) fill on first
    use with values that do not depend on who fills them, so ranks of
    the thread-per-rank engine may race a fill harmlessly.
    """

    def __init__(self, topology: ClusterTopology, group: Sequence[int]):
        #: Local rank -> world rank (``range`` for the world group).
        self.group = group
        #: World rank -> local rank; None for the identity world group.
        self.local_of = (
            None if isinstance(group, range) else {w: l for l, w in enumerate(group)}
        )
        #: Local rank -> hosting node.
        self.node_of = [topology.node_of_rank(w) for w in group]
        by_node: dict[int, list[int]] = {}
        for local, node in enumerate(self.node_of):
            by_node.setdefault(node, []).append(local)
        #: Local ranks grouped by hosting node, nodes ascending.
        self.node_groups = [by_node[n] for n in sorted(by_node)]
        #: First local rank of every node group.
        self.leaders = [g[0] for g in self.node_groups]
        #: Local rank -> (index of its node group, position inside it).
        self.where = {
            local: (gi, pos)
            for gi, members in enumerate(self.node_groups)
            for pos, local in enumerate(members)
        }
        self.selector = CollectiveSelector(
            topology, len(group), ranks_per_node=max(map(len, self.node_groups))
        )
        #: Source node -> {destination node -> link}, filled by the first
        #: message between the pair and shared by the source node's ranks.
        self.links: dict[int, dict[int, LinkModel]] = {n: {} for n in by_node}
        self._peers: dict[tuple, Any] = {}

    def peers(self, schedule: Callable[..., Any], *args: int) -> Any:
        """``schedule(*args)`` -- a pure peer list from
        :mod:`~repro.simmpi.collectives` -- computed once for the group
        and shared by every repeat of the collective.  Read-only."""
        key = (schedule, args)
        hit = self._peers.get(key)
        if hit is None:
            hit = self._peers[key] = schedule(*args)
        return hit
