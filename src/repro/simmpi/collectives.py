"""Communication schedules for collective operations.

Pure functions that compute who-talks-to-whom per round; the
:class:`~repro.simmpi.comm.Communicator` executes them with real
point-to-point messages.  Keeping the schedules separate makes them unit
testable and reusable by the analytic performance model, which costs the
same rounds without executing them.

Algorithms are the textbook ones Open MPI/MPICH use at these scales:
binomial trees for bcast (and the on-node fold of the hierarchical
allreduces), recursive doubling (with a pre/post fold for
non-powers-of-two) for allreduce, dissemination for barrier,
ring for allgather — plus the allreduce's large-message family:
segmented ring and Rabenseifner (reduce-scatter + allgather), and
hierarchical node-aware variants that fold intra-node over shared
memory before a leaders-only inter-node exchange.

Two layers live here:

* **execution plans** (who sends which segment to whom, per round) that
  :meth:`~repro.simmpi.comm.Communicator.allreduce` executes; and
* **schedule shapes** (:class:`ScheduleShape`: runs of equal rounds,
  each with its per-round bytes, an intra-/inter-node classification
  under block rank placement, and the number of concurrent off-node
  flows per NIC) that both the :mod:`~repro.simmpi.selector` and
  :mod:`repro.perfmodel` cost without executing, so the simulator and
  the analytic model agree on rounds and bytes per allreduce (see
  ``docs/collectives.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable

import numpy as np

from repro.errors import CommunicatorError


def binomial_children(rank: int, size: int, root: int) -> list[int]:
    """Children of ``rank`` in a binomial broadcast tree rooted at ``root``.

    Ranks are rotated so the root maps to virtual rank 0.  In round ``k``
    (k = 0 is the earliest), virtual rank ``v < 2^k`` sends to ``v + 2^k``.
    Children are returned in send order.
    """
    _check_rank(rank, size)
    _check_rank(root, size)
    virtual = (rank - root) % size
    children = []
    k = 0
    while (1 << k) < size:
        if virtual < (1 << k):
            child = virtual + (1 << k)
            if child < size:
                children.append((child + root) % size)
        k += 1
    return children


def binomial_parent(rank: int, size: int, root: int) -> int | None:
    """Parent of ``rank`` in the binomial tree, or None for the root."""
    _check_rank(rank, size)
    _check_rank(root, size)
    virtual = (rank - root) % size
    if virtual == 0:
        return None
    # Clear the highest set bit to find the parent.
    highest = 1 << (virtual.bit_length() - 1)
    return ((virtual - highest) + root) % size


def binomial_rounds(size: int) -> int:
    """Number of rounds a binomial tree needs: ceil(log2(size))."""
    if size < 1:
        raise CommunicatorError(f"size must be >= 1, got {size}")
    return max(0, math.ceil(math.log2(size))) if size > 1 else 0


def dissemination_rounds(size: int) -> list[int]:
    """Offsets per round of the dissemination barrier: 1, 2, 4, ...

    In round with offset ``d`` each rank sends to ``(rank + d) % size``
    and receives from ``(rank - d) % size``.
    """
    if size < 1:
        raise CommunicatorError(f"size must be >= 1, got {size}")
    offsets = []
    d = 1
    while d < size:
        offsets.append(d)
        d *= 2
    return offsets


def dissemination_peers(rank: int, size: int) -> list[tuple[int, int]]:
    """Per round ``(send_to, recv_from)`` of ``rank`` in the dissemination barrier."""
    _check_rank(rank, size)
    return [
        ((rank + d) % size, (rank - d) % size) for d in dissemination_rounds(size)
    ]


def recursive_doubling_plan(size: int) -> tuple[int, list[int]]:
    """Plan for recursive-doubling allreduce on arbitrary ``size``.

    Returns ``(pof2, masks)``: the largest power of two <= size and the
    XOR masks per round for the pof2 core.  The ``size - pof2`` excess
    ranks fold their data into a partner before the core rounds and
    receive the result after.
    """
    if size < 1:
        raise CommunicatorError(f"size must be >= 1, got {size}")
    pof2 = 1 << (size.bit_length() - 1)
    masks = []
    mask = 1
    while mask < pof2:
        masks.append(mask)
        mask *= 2
    return pof2, masks


def ring_neighbors(rank: int, size: int) -> tuple[int, int]:
    """(send_to, recv_from) of the allgather ring."""
    _check_rank(rank, size)
    return (rank + 1) % size, (rank - 1) % size


def _check_rank(rank: int, size: int) -> None:
    if size < 1:
        raise CommunicatorError(f"size must be >= 1, got {size}")
    if not (0 <= rank < size):
        raise CommunicatorError(f"rank {rank} outside communicator of size {size}")


# -- large-message execution plans --------------------------------------------


def ring_reduce_scatter_steps(rank: int, size: int) -> list[tuple[int, int]]:
    """Per-step ``(send_block, recv_block)`` of the segmented-ring reduce-scatter.

    The vector is split into ``size`` blocks.  At every step each rank
    ships its current block to ``rank + 1`` and folds the block arriving
    from ``rank - 1`` into its local data.  After ``size - 1`` steps rank
    ``r`` holds the complete reduction of block ``(r + 1) % size``.
    Every block is accumulated in the same fixed ring order, so the
    result is bit-identical on all ranks once allgathered.
    """
    _check_rank(rank, size)
    return [((rank - s) % size, (rank - s - 1) % size) for s in range(size - 1)]


def ring_allgather_steps(rank: int, size: int) -> list[tuple[int, int]]:
    """Per-step ``(send_block, recv_block)`` of the ring allgather phase."""
    _check_rank(rank, size)
    return [((rank + 1 - s) % size, (rank - s) % size) for s in range(size - 1)]


def recursive_halving_blocks(
    rank: int, pof2: int
) -> list[tuple[int, tuple[int, int], tuple[int, int]]]:
    """Rabenseifner reduce-scatter plan: ``(mask, keep, send)`` per round.

    ``keep``/``send`` are half-open block-index ranges over the ``pof2``
    segments of the vector.  Round one exchanges halves with the partner
    at distance ``pof2 / 2``; each subsequent round halves the kept
    range again.  After the last round ``keep == (rank, rank + 1)``: the
    rank owns exactly its segment.  The allgather phase replays the list
    in reverse (send ``keep``, receive ``send``), doubling the owned
    range back to the full vector.
    """
    if pof2 < 1 or (pof2 & (pof2 - 1)) != 0:
        raise CommunicatorError(f"pof2 must be a power of two >= 1, got {pof2}")
    _check_rank(rank, pof2)
    lo, hi = 0, pof2
    plan = []
    mask = pof2 >> 1
    while mask >= 1:
        mid = (lo + hi) // 2
        if rank & mask:
            keep, send = (mid, hi), (lo, mid)
            lo = mid
        else:
            keep, send = (lo, mid), (mid, hi)
            hi = mid
        plan.append((mask, keep, send))
        mask >>= 1
    return plan


# -- schedule shapes (shared with the selector and the perf model) -----------


@dataclass(frozen=True)
class CollRound:
    """A run of equal rounds of a collective schedule, as the cost models see it.

    ``nbytes`` is the payload on the critical rank for one round;
    ``internode`` says whether the slowest hop of the round crosses the
    node boundary under block placement; ``flows`` is how many
    concurrent off-node flows share one NIC during the round (1 for
    ring-style neighbour traffic, ranks-per-node for full pairwise
    exchanges); ``count`` is how many times the round happens back to
    back (a ring's ``2 (p - 1)`` steps are one run).
    """

    nbytes: float
    internode: bool
    flows: float = 1.0
    count: int = 1


def add_run(total: float, term: float, count: int) -> float:
    """``total`` after ``count`` successive additions of ``term``.

    Not ``total + count * term``: a run must cost bit for bit what its
    rounds cost one at a time, and float addition is not associative.
    """
    if count == 1:
        return total + term
    steps = np.full(count + 1, term, dtype=np.float64)
    steps[0] = total
    return float(np.add.accumulate(steps, out=steps)[-1])


def _payloads(runs: Iterable[CollRound]) -> Iterable[float]:
    # One payload per round, for the builtin ``sum``: the same builtin
    # over the same sequence is the only form equal to a per-round sum
    # on every interpreter (3.12's ``sum`` compensates, 3.11's does not).
    return chain.from_iterable(repeat(r.nbytes, r.count) for r in runs)


@dataclass(frozen=True)
class ScheduleShape:
    """Rounds and bytes of one collective algorithm on one layout.

    This is the contract between the executor and the cost models: the
    simulator executes exactly these rounds with real messages --
    ``round_count`` of them, every run ``count`` times -- and the
    selector and :class:`~repro.perfmodel.phases.PhaseModel` price the
    same runs analytically, so pricing a schedule costs its number of
    *runs* (one for a ring of any size), not its number of rounds.
    """

    algorithm: str
    rounds: tuple[CollRound, ...]

    @property
    def round_count(self) -> int:
        """Sequential message rounds on the critical path."""
        return sum(r.count for r in self.rounds)

    @property
    def internode_round_count(self) -> int:
        """Rounds whose slowest hop crosses the node boundary."""
        return sum(r.count for r in self.rounds if r.internode)

    @property
    def bytes_per_rank(self) -> float:
        """Payload bytes the critical rank sends across all rounds."""
        return float(sum(_payloads(self.rounds)))


HIER_ALLREDUCE_ALGORITHMS = (
    "hier_recursive_doubling",
    "hier_ring",
    "hier_rabenseifner",
)


def effective_ranks_per_node(size: int, cores_per_node: int) -> int:
    """Ranks sharing a node under block placement (at most ``size``)."""
    if size < 1:
        raise CommunicatorError(f"size must be >= 1, got {size}")
    if cores_per_node < 1:
        raise CommunicatorError(f"cores_per_node must be >= 1, got {cores_per_node}")
    return max(1, min(cores_per_node, size))


def mask_is_intranode(mask: int, size: int, ranks_per_node: int) -> bool:
    """Whether every XOR-``mask`` pair stays on one node under block placement.

    Pairs ``(r, r ^ mask)`` live inside aligned ``2 * mask``-wide rank
    blocks; they all fit within nodes exactly when the node width is a
    multiple of the block width.
    """
    if size <= ranks_per_node:
        return True
    return ranks_per_node % (2 * mask) == 0


def _ring_internode(size: int, ranks_per_node: int) -> bool:
    # A ring step is gated by its slowest hop: once the communicator
    # spans nodes, every step includes at least one node-boundary hop.
    return size > ranks_per_node


def _shape(algorithm: str, runs: list[CollRound]) -> ScheduleShape:
    # Builders state an absent phase (no fold, p = 1) as a run of count 0.
    return ScheduleShape(algorithm, tuple(r for r in runs if r.count > 0))


def allreduce_shape(
    algorithm: str, size: int, nbytes: float, ranks_per_node: int = 1
) -> ScheduleShape:
    """The :class:`ScheduleShape` of one allreduce algorithm.

    ``ranks_per_node`` controls both the intra-/inter-node round
    classification and the NIC flow count of full pairwise rounds.
    """
    if size < 1:
        raise CommunicatorError(f"size must be >= 1, got {size}")
    if nbytes < 0:
        raise CommunicatorError(f"nbytes must be >= 0, got {nbytes}")
    c = effective_ranks_per_node(size, ranks_per_node)
    if algorithm == "recursive_doubling":
        return _shape(algorithm, _rd_runs(size, nbytes, c))
    if algorithm == "ring":
        return _shape(algorithm, [_ring_run(size, nbytes, c, 2 * (size - 1))])
    if algorithm == "rabenseifner":
        return _shape(algorithm, _rabenseifner_runs(size, nbytes, c))
    if algorithm in HIER_ALLREDUCE_ALGORITHMS:
        inter = algorithm[len("hier_"):]
        return _shape(algorithm, _hier_allreduce_runs(inter, size, nbytes, c))
    raise CommunicatorError(f"unknown allreduce algorithm {algorithm!r}")


def _rd_runs(size: int, nbytes: float, c: int) -> list[CollRound]:
    pof2, masks = recursive_doubling_plan(size)
    fold = CollRound(nbytes, size > c, flows=float(c), count=int(size != pof2))
    runs = [fold]
    for mask in masks:
        intra = mask_is_intranode(mask, size, c)
        runs.append(CollRound(nbytes, not intra, flows=1.0 if intra else float(c)))
    runs.append(fold)
    return runs


def _ring_run(size: int, nbytes: float, c: int, steps: int) -> CollRound:
    # ``steps`` equal neighbour exchanges of one of the ``size`` segments.
    return CollRound(nbytes / size, _ring_internode(size, c), count=steps)


def _rabenseifner_runs(size: int, nbytes: float, c: int) -> list[CollRound]:
    pof2, masks = recursive_doubling_plan(size)
    fold = CollRound(nbytes, size > c, flows=float(c), count=int(size != pof2))
    halving = []
    for mask in reversed(masks):
        intra = mask_is_intranode(mask, size, c)
        payload = nbytes * mask / pof2
        halving.append(CollRound(payload, not intra, flows=1.0 if intra else float(c)))
    # Reduce-scatter by recursive halving (largest distance first) then
    # allgather by recursive doubling: mirrored rounds, halved payloads.
    return [fold, *halving, *reversed(halving), fold]


def _hier_allreduce_runs(
    inter_algorithm: str, size: int, nbytes: float, c: int
) -> list[CollRound]:
    leaders = -(-size // c)  # ceil: one leader per occupied node
    intra = CollRound(nbytes, internode=False, count=binomial_rounds(c))
    # Leaders-only exchange: one rank per node on the NIC, so flows
    # collapse to 1 — the whole point of the node-aware variants.
    inter = allreduce_shape(inter_algorithm, leaders, nbytes, ranks_per_node=1)
    return [intra, *inter.rounds, intra]
