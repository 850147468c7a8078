"""The simmpi Communicator: mpi4py-style message passing in virtual time.

Semantics are executed for real (payloads actually move between
rank tasks); timing is modeled: each message advances virtual clocks
through the platform's :class:`~repro.network.topology.ClusterTopology`.

Collectives run the schedules from :mod:`repro.simmpi.collectives` with
real point-to-point messages, so their cost emerges from the same
alpha-beta model instead of being hand-waved — a binomial bcast on an
InfiniBand cluster is genuinely cheaper than on 1 GbE because each of
its log2(p) hops is.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.errors import CommunicatorError
from repro.network.topology import ClusterTopology
from repro.obs.core import current as _obs_current
from repro.simmpi import collectives as coll
from repro.simmpi.selector import CollectiveSelector, GroupPlan
from repro.simmpi.clock import VirtualClock
from repro.simmpi.datatypes import (
    ANY_SOURCE,
    ANY_TAG,
    Message,
    ReduceOp,
    Status,
    SUM,
    payload_nbytes,
)
from repro.simmpi.tracing import (
    ALGORITHM,
    COLLECTIVE,
    COMPUTE,
    ENTER,
    RECV,
    SEND,
    UNSUPPORTED,
)

if TYPE_CHECKING:
    from repro.simmpi.events import Runtime

# Per-message CPU overhead on each side (LogP's "o" parameter).
SEND_OVERHEAD = 0.5e-6
RECV_OVERHEAD = 0.5e-6

# Collective operations use a reserved tag space above user tags.
_COLL_TAG_BASE = 1 << 20
_MAX_USER_TAG = _COLL_TAG_BASE - 1


def _traced_collective(method):
    """Log the round's entry and exit and bump the per-comm counter.

    This is what makes communication-avoiding solver variants auditable:
    the fused-allreduce CG claims one round per iteration, and the
    difference in ``comm.collective_counts["allreduce"]`` around an
    iteration proves it.
    """

    name = method.__name__

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        log = self.log
        if log is None:
            result = method(self, *args, **kwargs)
        else:
            start = self.clock.time
            log.append((ENTER, name))
            result = method(self, *args, **kwargs)
            log.append((COLLECTIVE, name, start, self.clock.time))
        self.collective_counts[name] += 1
        return result

    return wrapper


class Request:
    """Handle for a non-blocking operation (mpi4py's Request)."""

    def __init__(self, comm: "Communicator", kind: str, source: int = ANY_SOURCE,
                 tag: int = ANY_TAG, payload: Any = None):
        self._comm = comm
        self._kind = kind
        self._source = source
        self._tag = tag
        self._payload = payload
        self._done = kind == "send"  # eager sends complete immediately

    def wait(self) -> Any:
        """Block until complete; returns the received payload for irecv."""
        if self._done:
            return self._payload
        self._payload = self._comm.recv(source=self._source, tag=self._tag)
        self._done = True
        return self._payload

    def test(self) -> tuple[bool, Any]:
        """Non-blocking completion check: (done, payload_or_None)."""
        if self._done:
            return True, self._payload
        got = self._comm._try_recv(self._source, self._tag)
        if got is None:
            return False, None
        self._payload = got[0]
        self._done = True
        return True, self._payload


class Communicator:
    """An MPI-like communicator over the virtual-time engine.

    ``group`` maps local ranks to engine (world) ranks; the world
    communicator has the identity group and context 0.  The engine must
    already hold the group's :class:`~repro.simmpi.selector.GroupPlan`
    under ``context`` (``run_spmd`` and :meth:`split` register it).
    ``log`` is this physical rank's event list in the launch's
    :class:`~repro.simmpi.tracing.EventLog`, or None when nothing
    observes the launch.
    """

    def __init__(
        self,
        engine: Runtime,
        rank: int,
        size: int,
        topology: ClusterTopology,
        clock: VirtualClock | None = None,
        context: int = 0,
        group: list[int] | None = None,
        log: list[tuple] | None = None,
    ):
        if not (0 <= rank < size):
            raise CommunicatorError(f"rank {rank} outside communicator of size {size}")
        self.engine = engine
        self.rank = rank
        self.size = size
        self.topology = topology
        self.clock = clock if clock is not None else VirtualClock()
        self.context = context
        #: ``range(size)`` for the identity (world) group: materializing a
        #: per-rank list and reverse dict made every communicator O(size),
        #: i.e. O(p^2) across a run -- hundreds of MB at p >= 2048 and GC
        #: storms across sweeps.  Split communicators keep explicit lists.
        self.group: Sequence[int] = group if group is not None else range(size)
        if len(self.group) != size:
            raise CommunicatorError(
                f"group has {len(self.group)} entries for size-{size} communicator"
            )
        #: This rank's id in the engine's world numbering.
        self.world_rank = self.group[rank]
        #: The group's shared placement and plans; everything below that
        #: depends on other ranks is a lookup in it, never a rebuild.
        self._plan: GroupPlan = engine.plans[context]
        self._node = self._plan.node_of[rank]
        self._links = self._plan.links[self._node]
        #: Per physical rank, like ``clock``: the world communicator and
        #: every split/dup of it count into one tally.
        self._traffic = engine.counters[self.world_rank]
        self.collective_counts = self._traffic.collective_counts
        self.algorithm_counts = self._traffic.algorithm_counts
        self._coll_seq = 0
        #: The one observer: every tracer record, recording op, causal
        #: clock and ``simmpi_*`` counter is derived from this list.
        self.log = log

    # -- identity -------------------------------------------------------------

    @property
    def time(self) -> float:
        """This rank's current virtual time."""
        return self.clock.time

    @property
    def bytes_sent(self) -> int:
        """Bytes this physical rank has sent, on any of its communicators."""
        return self._traffic.bytes_sent

    @property
    def offnode_bytes_sent(self) -> int:
        """The share of :attr:`bytes_sent` that crossed the node boundary."""
        return self._traffic.offnode_bytes_sent

    @property
    def messages_sent(self) -> int:
        """Messages this physical rank has sent, on any of its communicators."""
        return self._traffic.messages_sent

    def __repr__(self) -> str:
        return f"Communicator(rank={self.rank}/{self.size}, context={self.context})"

    # -- local computation ------------------------------------------------------

    def compute(self, seconds: float, label: str = "compute") -> None:
        """Advance this rank's clock by a modeled computation time."""
        if seconds < 0:
            raise CommunicatorError(f"compute duration must be >= 0, got {seconds}")
        start = self.clock.time
        self.clock.advance(seconds)
        if self.log is not None:
            self.log.append((COMPUTE, seconds, label, start, self.clock.time))

    # -- point-to-point -----------------------------------------------------------

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Eager send: charges the sender its overhead and returns."""
        self._check_peer(dest)
        self._check_tag(tag)
        self._send_impl(payload, dest, tag + 0)

    def _send_impl(self, payload: Any, dest: int, tag: int) -> None:
        world_rank = self.world_rank
        self.engine.fault_op(world_rank)
        nbytes = payload_nbytes(payload)
        traffic = self._traffic
        traffic.bytes_sent += nbytes
        traffic.messages_sent += 1
        clock = self.clock
        start = clock.time
        world_dest = self.group[dest]
        dst_node = self._plan.node_of[dest]
        link = self._links.get(dst_node)
        if link is None:
            link = self._links[dst_node] = self.topology.network.link_between(
                self._node, dst_node
            )
        if dst_node != self._node:
            traffic.offnode_bytes_sent += nbytes
        # Store-and-forward injection: the sender's NIC serializes the
        # payload (LogGP's G*n charged at the sender), so back-to-back
        # sends cannot overlap on one adapter: a tree node's children
        # are served one after another.
        arrival = clock.advance(SEND_OVERHEAD + nbytes / link.bandwidth) + link.latency
        seq = -1
        log = self.log
        if log is not None:
            seq = len(log)
            log.append((SEND, world_dest, tag, nbytes, start, clock.time))
        self.engine.post(
            world_dest,
            Message(self.context, world_rank, tag, payload, nbytes, arrival, seq),
        )

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive; returns the payload."""
        payload, _ = self.recv_status(source, tag)
        return payload

    def recv_status(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> tuple[Any, Status]:
        """Blocking receive; returns (payload, Status)."""
        if source != ANY_SOURCE:
            self._check_peer(source)
        msg = self._recv_impl(source, tag, user=True)
        return msg.payload, self._status(msg)

    def _recv_impl(self, source: int, tag: int, user: bool = False) -> Message:
        """The one receive path (mirror of :meth:`_send_impl`): block for
        the match from local rank ``source`` and absorb it."""
        world_source = ANY_SOURCE if source == ANY_SOURCE else self.group[source]
        msg = self.engine.wait_for_message(
            self.world_rank, self.context, world_source, tag, consume=True
        )
        self._absorb(msg, user)
        return msg

    def _status(self, msg: Message) -> Status:
        """The Status of a matched message, in this group's ranks."""
        return Status(
            source=self._local_of(msg.source), tag=msg.tag, nbytes=msg.nbytes
        )

    def _absorb(self, msg: Message, user: bool) -> None:
        """Merge the message's arrival time into this rank's clock.

        ``user`` marks a receive the program asked for (a tracer
        record); the ones inside collectives and replay are log-only.
        """
        clock = self.clock
        start = clock.time
        clock.merge(msg.arrival_time)
        clock.advance(RECV_OVERHEAD)
        if self.log is not None:
            self.log.append((RECV, msg.source, msg.tag, msg.nbytes, start,
                             clock.time, msg.seq, user))

    def _unsupported(self, reason: str) -> None:
        """Log a feature a schedule recording cannot represent."""
        if self.log is not None:
            self.log.append((UNSUPPORTED, reason))

    def _local_of(self, world: int) -> int:
        """Local rank of a world rank (identity for the world group)."""
        table = self._plan.local_of
        return world if table is None else table[world]

    def _try_recv(self, source: int, tag: int) -> tuple[Any, Status] | None:
        """Non-blocking receive for :meth:`Request.test`: None if no
        match is pending, else what :meth:`recv_status` returns."""
        # Request.test polling is timing-dependent control flow: the
        # outcome (and hence the program's op sequence) can legally
        # differ on another platform, so the schedule is not portable.
        self._unsupported("Request.test polling")
        world_source = ANY_SOURCE if source == ANY_SOURCE else self.group[source]
        msg = self.engine.poll(
            self.world_rank, self.context, world_source, tag, consume=True
        )
        if msg is None:
            return None
        self._absorb(msg, True)
        return msg.payload, self._status(msg)

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send (eager: completes immediately)."""
        self.send(payload, dest, tag)
        return Request(self, "send", payload=None)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; complete with ``wait()`` or ``test()``."""
        return Request(self, "recv", source=source, tag=tag)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status | None:
        """Non-blocking probe: Status of a matching pending message
        (without consuming it), or None.  Does not advance the clock."""
        self._unsupported("iprobe")
        if source != ANY_SOURCE:
            self._check_peer(source)
        world_source = ANY_SOURCE if source == ANY_SOURCE else self.group[source]
        msg = self.engine.poll(
            self.world_rank, self.context, world_source, tag, consume=False
        )
        return None if msg is None else self._status(msg)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Blocking probe: wait until a matching message is pending.

        The message stays in the mailbox; the clock merges to its
        arrival time (you cannot know it exists before it arrives).
        """
        # probe merges the clock without absorbing the message, a
        # timing effect the op stream cannot represent.
        self._unsupported("probe")
        if source != ANY_SOURCE:
            self._check_peer(source)
        world_source = ANY_SOURCE if source == ANY_SOURCE else self.group[source]
        msg = self.engine.wait_for_message(
            self.world_rank, self.context, world_source, tag, consume=False
        )
        self.clock.merge(msg.arrival_time)
        return self._status(msg)

    @staticmethod
    def waitall(requests: list["Request"]) -> list[Any]:
        """Complete a list of requests; returns their payloads in order."""
        return [req.wait() for req in requests]

    def sendrecv(
        self, payload: Any, dest: int, source: int = ANY_SOURCE,
        sendtag: int = 0, recvtag: int = ANY_TAG,
    ) -> Any:
        """Combined send + receive (deadlock-free since sends are eager)."""
        self.send(payload, dest, sendtag)
        return self.recv(source=source, tag=recvtag)

    # -- collectives ---------------------------------------------------------------

    def _next_coll_tag(self) -> int:
        self._coll_seq += 1
        return _COLL_TAG_BASE + (self._coll_seq % (1 << 20))

    # -- adaptive algorithm selection ---------------------------------------

    def selector(self) -> CollectiveSelector:
        """The algorithm selector for this group's rank placement."""
        return self._plan.selector

    def _record_algorithm(
        self, collective: str, algorithm: str, site: str,
        nbytes: int = -1, auto: bool = False, segmentable: bool = False,
    ) -> None:
        self.algorithm_counts[f"{collective}.{algorithm}"] += 1
        if self.log is not None:
            self.log.append((ALGORITHM, collective, algorithm, int(nbytes),
                             bool(auto), bool(segmentable)))
        obs = _obs_current()
        if obs.enabled:
            obs.count(
                "collective_algorithm_total",
                collective=collective,
                algorithm=algorithm,
                site=site or "unlabeled",
            )

    @_traced_collective
    def barrier(self) -> None:
        """Dissemination barrier; synchronizes virtual clocks."""
        tag = self._next_coll_tag()
        for send_to, recv_from in self._plan.peers(
            coll.dissemination_peers, self.rank, self.size
        ):
            self._send_impl(None, send_to, tag)
            self.engine.check_abort()
            self._recv_impl(recv_from, tag)

    @_traced_collective
    def bcast(self, payload: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast (log2(p) rounds); every rank returns the payload."""
        self._check_peer(root)
        tag = self._next_coll_tag()
        self._record_algorithm("bcast", "binomial", "")
        return self._bcast_members(payload, tag, range(self.size), self.rank, root)

    def _bcast_members(
        self, payload: Any, tag: int, members: Sequence[int], me: int, root_pos: int
    ) -> Any:
        """Binomial-tree bcast over ``members`` (local ranks), of which
        this rank is the ``me``-th, from the ``root_pos``-th."""
        size = len(members)
        parent = coll.binomial_parent(me, size, root_pos)
        if parent is not None:
            msg = self._recv_impl(members[parent], tag)
            payload = msg.payload
        for child in self._plan.peers(coll.binomial_children, me, size, root_pos):
            self._send_impl(payload, members[child], tag)
        return payload

    @_traced_collective
    def reduce(self, value: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        """Binomial-tree reduction; the result lands on ``root`` (None elsewhere)."""
        self._check_peer(root)
        tag = self._next_coll_tag()
        return self._reduce_members(value, op, tag, range(self.size), self.rank, root)

    @_traced_collective
    def allreduce(
        self, value: Any, op: ReduceOp = SUM, algorithm: str = "auto", site: str = ""
    ) -> Any:
        """Allreduce; every rank returns the reduction.

        ``algorithm`` picks the schedule: ``"recursive_doubling"`` (the
        small-message default, with a pre/post fold for non-powers-of-
        two), ``"ring"`` (segmented reduce-scatter + allgather,
        bandwidth-optimal for large ndarrays), ``"rabenseifner"``
        (recursive-halving reduce-scatter + recursive-doubling
        allgather), the node-aware ``"hier_recursive_doubling"`` /
        ``"hier_ring"`` / ``"hier_rabenseifner"`` (binomial fold to the
        node leader over shared memory, leaders-only exchange over the
        fabric, binomial fan-out), or ``"auto"`` — the :meth:`selector`
        costs every eligible schedule against the platform's network
        model and picks the cheapest.  The selection is a pure function
        of (size, bytes, topology), so every rank resolves the same
        algorithm without communicating.

        The segmented algorithms (ring, Rabenseifner and their
        hierarchical forms) require an ndarray ``value``; ``"auto"``
        only considers them when the payload qualifies.  All variants
        return bit-identical results on every rank of one call.
        ``site`` labels the chosen algorithm in the obs metrics.
        """
        tag = self._next_coll_tag()
        was_auto = algorithm == "auto"
        rec_nbytes = -1
        segmentable = isinstance(value, np.ndarray)
        if was_auto:
            rec_nbytes = payload_nbytes(value)
            algorithm = self.selector().select_allreduce(
                rec_nbytes, segmentable=segmentable
            ).algorithm
        self._record_algorithm(
            "allreduce", algorithm, site,
            nbytes=rec_nbytes, auto=was_auto, segmentable=segmentable,
        )
        members = range(self.size)
        if algorithm == "recursive_doubling":
            return self._allreduce_rd(value, op, tag, members, self.rank)
        if algorithm == "ring":
            return self._allreduce_ring(value, op, tag, members, self.rank)
        if algorithm == "rabenseifner":
            return self._allreduce_rabenseifner(value, op, tag, members, self.rank)
        if algorithm in coll.HIER_ALLREDUCE_ALGORITHMS:
            return self._allreduce_hierarchical(
                value, op, tag, inter_algorithm=algorithm[len("hier_"):]
            )
        raise CommunicatorError(f"unknown allreduce algorithm {algorithm!r}")

    def _allreduce_rd(
        self, value: Any, op: ReduceOp, tag: int, members: Sequence[int], me: int
    ) -> Any:
        """Recursive-doubling allreduce over ``members`` (local ranks), of
        which this rank is the ``me``-th."""
        size = len(members)
        pof2, masks = self._plan.peers(coll.recursive_doubling_plan, size)
        excess = size - pof2
        accum = value

        # Pre-phase: the top `excess` ranks fold into partners below pof2.
        if me >= pof2:
            partner = members[me - pof2]
            self._send_impl(accum, partner, tag)
            # Wait for the final result in the post-phase.
            msg = self._recv_impl(partner, tag)
            return msg.payload

        if me < excess:
            msg = self._recv_impl(members[me + pof2], tag)
            accum = op(accum, msg.payload)

        for mask in masks:
            partner = members[me ^ mask]
            self._send_impl(accum, partner, tag)
            msg = self._recv_impl(partner, tag)
            accum = op(accum, msg.payload)

        if me < excess:
            self._send_impl(accum, members[me + pof2], tag)
        return accum

    def _require_ndarray(self, value: Any, algorithm: str) -> np.ndarray:
        if not isinstance(value, np.ndarray):
            raise CommunicatorError(
                f"{algorithm} allreduce requires an ndarray payload it can "
                f"segment, got {type(value).__name__}"
            )
        return value

    def _allreduce_ring(
        self, value: Any, op: ReduceOp, tag: int, members: Sequence[int], me: int
    ) -> Any:
        """Segmented-ring allreduce: reduce-scatter + allgather.

        Every block is folded in the same fixed ring order, so all ranks
        return bit-identical arrays even for non-associative float ops.
        """
        arr = self._require_ndarray(value, "ring")
        size = len(members)
        if size == 1:
            return arr
        segments = np.array_split(arr.ravel(), size)
        send_to = members[(me + 1) % size]
        recv_from = members[(me - 1) % size]
        for send_block, recv_block in coll.ring_reduce_scatter_steps(me, size):
            self._send_impl(segments[send_block], send_to, tag)
            msg = self._recv_impl(recv_from, tag)
            segments[recv_block] = op(segments[recv_block], msg.payload)
        for send_block, recv_block in coll.ring_allgather_steps(me, size):
            self._send_impl(segments[send_block], send_to, tag)
            msg = self._recv_impl(recv_from, tag)
            segments[recv_block] = msg.payload
        return np.concatenate(segments).reshape(arr.shape)

    def _allreduce_rabenseifner(
        self, value: Any, op: ReduceOp, tag: int, members: Sequence[int], me: int
    ) -> Any:
        """Rabenseifner allreduce: recursive-halving reduce-scatter +
        recursive-doubling allgather, with the non-power-of-two fold."""
        arr = self._require_ndarray(value, "rabenseifner")
        size = len(members)
        if size == 1:
            return arr
        pof2, _ = self._plan.peers(coll.recursive_doubling_plan, size)
        excess = size - pof2
        accum: Any = arr
        if me >= pof2:
            partner = members[me - pof2]
            self._send_impl(accum, partner, tag)
            msg = self._recv_impl(partner, tag)
            return msg.payload
        if me < excess:
            msg = self._recv_impl(members[me + pof2], tag)
            accum = op(accum, msg.payload)

        work = np.array(accum, copy=True).ravel()
        bounds = np.zeros(pof2 + 1, dtype=np.intp)
        np.cumsum([s.size for s in np.array_split(work, pof2)], out=bounds[1:])
        plan = coll.recursive_halving_blocks(me, pof2)
        for mask, keep, send in plan:
            partner = members[me ^ mask]
            s0, s1 = bounds[send[0]], bounds[send[1]]
            k0, k1 = bounds[keep[0]], bounds[keep[1]]
            self._send_impl(work[s0:s1].copy(), partner, tag)
            msg = self._recv_impl(partner, tag)
            work[k0:k1] = op(work[k0:k1], msg.payload)
        for mask, keep, send in reversed(plan):
            partner = members[me ^ mask]
            k0, k1 = bounds[keep[0]], bounds[keep[1]]
            s0, s1 = bounds[send[0]], bounds[send[1]]
            self._send_impl(work[k0:k1].copy(), partner, tag)
            msg = self._recv_impl(partner, tag)
            work[s0:s1] = msg.payload
        result = work.reshape(arr.shape)
        if me < excess:
            self._send_impl(result, members[me + pof2], tag)
        return result

    def _allreduce_hierarchical(
        self, value: Any, op: ReduceOp, tag: int, inter_algorithm: str
    ) -> Any:
        """Node-aware allreduce: binomial fold to the node leader over
        shared memory, leaders-only inter-node exchange, binomial fan-out."""
        plan = self._plan
        node, pos = plan.where[self.rank]
        my_group = plan.node_groups[node]
        accum = self._reduce_members(value, op, tag, my_group, pos, 0)
        if pos == 0:
            if inter_algorithm == "recursive_doubling":
                accum = self._allreduce_rd(accum, op, tag, plan.leaders, node)
            elif inter_algorithm == "ring":
                accum = self._allreduce_ring(accum, op, tag, plan.leaders, node)
            elif inter_algorithm == "rabenseifner":
                accum = self._allreduce_rabenseifner(accum, op, tag, plan.leaders, node)
            else:
                raise CommunicatorError(
                    f"unknown hierarchical inter-node algorithm {inter_algorithm!r}"
                )
        return self._bcast_members(accum, tag, my_group, pos, 0)

    def _reduce_members(
        self, value: Any, op: ReduceOp, tag: int, members: Sequence[int], me: int,
        root_pos: int,
    ) -> Any:
        """Binomial reduce over ``members`` to position ``root_pos`` (None
        elsewhere); children are received deepest first."""
        size = len(members)
        accum = value
        for child in reversed(
            self._plan.peers(coll.binomial_children, me, size, root_pos)
        ):
            msg = self._recv_impl(members[child], tag)
            accum = op(accum, msg.payload)
        parent = coll.binomial_parent(me, size, root_pos)
        if parent is not None:
            self._send_impl(accum, members[parent], tag)
            return None
        return accum

    @_traced_collective
    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        """Linear gather to ``root``; returns the list there, None elsewhere."""
        self._check_peer(root)
        tag = self._next_coll_tag()
        if self.rank != root:
            self._send_impl(value, root, tag)
            return None
        out = [None] * self.size
        out[root] = value
        for src in range(self.size):
            if src == root:
                continue
            msg = self._recv_impl(src, tag)
            out[self._local_of(msg.source)] = msg.payload
        return out

    @_traced_collective
    def allgather(self, value: Any) -> list[Any]:
        """Ring allgather; every rank returns the full list."""
        tag = self._next_coll_tag()
        out = [None] * self.size
        out[self.rank] = value
        send_to, recv_from = coll.ring_neighbors(self.rank, self.size)
        carry_index = self.rank
        for _ in range(self.size - 1):
            self._send_impl((carry_index, out[carry_index]), send_to, tag)
            msg = self._recv_impl(recv_from, tag)
            carry_index, payload = msg.payload
            out[carry_index] = payload
        return out

    @_traced_collective
    def scatter(self, values: list[Any] | None, root: int = 0) -> Any:
        """Linear scatter from ``root``; each rank returns its slice."""
        self._check_peer(root)
        tag = self._next_coll_tag()
        if self.rank == root:
            if values is None or len(values) != self.size:
                raise CommunicatorError(
                    f"scatter root needs a list of exactly {self.size} items"
                )
            for dest in range(self.size):
                if dest != root:
                    self._send_impl(values[dest], dest, tag)
            return values[root]
        msg = self._recv_impl(root, tag)
        return msg.payload

    @_traced_collective
    def alltoall(self, values: list[Any]) -> list[Any]:
        """Pairwise-exchange all-to-all."""
        if len(values) != self.size:
            raise CommunicatorError(
                f"alltoall needs a list of exactly {self.size} items"
            )
        tag = self._next_coll_tag()
        out = [None] * self.size
        out[self.rank] = values[self.rank]
        for shift in range(1, self.size):
            dest = (self.rank + shift) % self.size
            src = (self.rank - shift) % self.size
            self._send_impl(values[dest], dest, tag)
            msg = self._recv_impl(src, tag)
            out[self._local_of(msg.source)] = msg.payload
        return out

    @_traced_collective
    def scan(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Inclusive prefix scan along the rank chain."""
        tag = self._next_coll_tag()
        accum = value
        if self.rank > 0:
            msg = self._recv_impl(self.rank - 1, tag)
            accum = op(msg.payload, value)
        if self.rank + 1 < self.size:
            self._send_impl(accum, self.rank + 1, tag)
        return accum

    @_traced_collective
    def exscan(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Exclusive prefix scan; rank 0 receives None.

        The classic use is computing global DOF offsets from local
        counts, which is exactly what the distributed assembly needs.
        """
        tag = self._next_coll_tag()
        prefix = None
        if self.rank > 0:
            msg = self._recv_impl(self.rank - 1, tag)
            prefix = msg.payload
        if self.rank + 1 < self.size:
            carry = value if prefix is None else op(prefix, value)
            self._send_impl(carry, self.rank + 1, tag)
        return prefix

    @_traced_collective
    def reduce_scatter_block(self, values: list[Any], op: ReduceOp = SUM) -> Any:
        """Reduce ``values`` elementwise across ranks, scatter one block each.

        ``values`` must have exactly ``size`` entries; rank ``i`` returns
        the reduction of everyone's ``values[i]``.  Implemented as
        pairwise exchange + local reduction (the small-message algorithm).
        """
        if len(values) != self.size:
            raise CommunicatorError(
                f"reduce_scatter_block needs a list of exactly {self.size} items"
            )
        contributions = self.alltoall(values)
        accum = contributions[0]
        for item in contributions[1:]:
            accum = op(accum, item)
        return accum

    # -- communicator management -----------------------------------------------------

    def split(self, color: int, key: int | None = None) -> "Communicator":
        """Partition the communicator by ``color``, order by ``key``.

        All ranks must call it (collective).  Returns the new
        sub-communicator for this rank's color.
        """
        # Sub-communicator traffic would interleave with world traffic
        # in ways the single-context replay walker does not model.
        self._unsupported("split/dup sub-communicators")
        if key is None:
            key = self.rank
        triples = self.allgather((int(color), int(key), self.rank))
        mapping = None
        if self.rank == 0:
            # Local rank 0 allocates the context ids, so all members agree,
            # and builds each colour's plan once, before the bcast below
            # tells its members where to find it.
            by_color: dict[int, list[tuple[int, int]]] = {}
            for c, k, r in triples:
                by_color.setdefault(c, []).append((k, r))
            mapping = {}
            for c in sorted(by_color):
                mapping[c] = self.engine.allocate_context()
                self.engine.plans[mapping[c]] = GroupPlan(
                    self.topology, [self.group[r] for _, r in sorted(by_color[c])]
                )
        mapping = self.bcast(mapping, root=0)
        plan = self.engine.plans[mapping[color]]
        return Communicator(
            engine=self.engine,
            rank=plan.local_of[self.world_rank],
            size=len(plan.group),
            topology=self.topology,
            clock=self.clock,  # shared: same physical rank, same timeline
            context=mapping[color],
            group=plan.group,
            log=self.log,  # shared too: one log per physical rank
        )

    def dup(self) -> "Communicator":
        """Duplicate the communicator with a fresh context (collective)."""
        return self.split(color=0, key=self.rank)

    # -- validation --------------------------------------------------------------

    def _check_peer(self, peer: int) -> None:
        if not (0 <= peer < self.size):
            raise CommunicatorError(
                f"peer rank {peer} outside communicator of size {self.size}"
            )

    def _check_tag(self, tag: int) -> None:
        if not (0 <= tag <= _MAX_USER_TAG):
            raise CommunicatorError(
                f"user tags must be in [0, {_MAX_USER_TAG}], got {tag}"
            )
