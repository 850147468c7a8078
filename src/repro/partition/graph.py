"""Dual-graph partitioning: greedy growing + Kernighan–Lin refinement.

The METIS-family approach ParMETIS implements: build the element dual
graph (cells adjacent through faces), grow parts greedily from seed
cells by breadth-first accretion under a load budget, then improve the
edge cut with boundary Kernighan–Lin passes that preserve balance.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import PartitionError
from repro.fem.mesh import StructuredBoxMesh


def build_adjacency(mesh: StructuredBoxMesh) -> list[np.ndarray]:
    """Neighbour lists of the dual graph, one array per cell."""
    n = mesh.num_cells
    edges = mesh.dual_edges
    counts = np.zeros(n, dtype=np.int64)
    np.add.at(counts, edges[:, 0], 1)
    np.add.at(counts, edges[:, 1], 1)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    flat = np.empty(offsets[-1], dtype=np.int64)
    cursor = offsets[:-1].copy()
    for a, b in edges:
        flat[cursor[a]] = b
        cursor[a] += 1
        flat[cursor[b]] = a
        cursor[b] += 1
    return [flat[offsets[i] : offsets[i + 1]] for i in range(n)]


def partition_graph(
    mesh: StructuredBoxMesh,
    num_parts: int,
    refine_passes: int = 4,
) -> np.ndarray:
    """Partition the mesh dual graph into ``num_parts`` balanced parts.

    Greedy growing picks the unassigned cell farthest (by BFS hops) from
    previous seeds, grows a part to its size budget preferring cells with
    most already-in-part neighbours, then runs ``refine_passes`` of
    boundary Kernighan–Lin moves.  Ties break at random, from one fixed
    seed, so a mesh always gets the same partition.
    """
    n = mesh.num_cells
    if num_parts < 1:
        raise PartitionError(f"num_parts must be >= 1, got {num_parts}")
    if num_parts > n:
        raise PartitionError(f"cannot split {n} cells into {num_parts} parts")
    if num_parts == 1:
        return np.zeros(n, dtype=np.int64)

    adjacency = build_adjacency(mesh)
    rng = np.random.default_rng(0)
    assignment = np.full(n, -1, dtype=np.int64)

    base = n // num_parts
    extra = n % num_parts
    budgets = [base + (1 if p < extra else 0) for p in range(num_parts)]

    distance = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    for part in range(num_parts):
        seed_cell = _pick_seed(assignment, distance, rng)
        _grow_part(adjacency, assignment, part, seed_cell, budgets[part], rng)
        _update_distance(adjacency, distance, seed_cell, assignment)

    # Any stragglers (disconnected leftovers) join their smallest neighbour part.
    leftovers = np.nonzero(assignment < 0)[0]
    sizes = np.bincount(assignment[assignment >= 0], minlength=num_parts)
    for cell in leftovers:
        nb_parts = {int(assignment[nb]) for nb in adjacency[cell] if assignment[nb] >= 0}
        target = min(nb_parts, key=lambda p: sizes[p]) if nb_parts else int(np.argmin(sizes))
        assignment[cell] = target
        sizes[target] += 1

    for _ in range(refine_passes):
        moved = _kl_refine_pass(adjacency, assignment, num_parts)
        if not moved:
            break
    return assignment


def _pick_seed(assignment: np.ndarray, distance: np.ndarray, rng) -> int:
    unassigned = np.nonzero(assignment < 0)[0]
    if unassigned.size == 0:
        raise PartitionError("no cells left to seed a part from")
    dist_slice = distance[unassigned]
    if np.all(dist_slice == np.iinfo(np.int64).max):
        return int(rng.choice(unassigned))
    return int(unassigned[np.argmax(dist_slice)])


def _update_distance(adjacency, distance, source: int, assignment) -> None:
    """BFS hop distances from ``source``, min-merged into ``distance``."""
    from collections import deque

    seen = {source}
    queue = deque([(source, 0)])
    while queue:
        cell, d = queue.popleft()
        if d < distance[cell]:
            distance[cell] = d
        for nb in adjacency[cell]:
            nb = int(nb)
            if nb not in seen:
                seen.add(nb)
                queue.append((nb, d + 1))


def _grow_part(adjacency, assignment, part: int, seed_cell: int, budget: int, rng) -> None:
    """Accrete ``budget`` cells into ``part`` starting from ``seed_cell``.

    Frontier is a max-heap on the number of neighbours already in the
    part (ties broken randomly) — the standard greedy-graph-growing
    heuristic that keeps parts chunky.
    """
    if assignment[seed_cell] >= 0:
        candidates = np.nonzero(assignment < 0)[0]
        if candidates.size == 0:
            return
        seed_cell = int(candidates[0])
    count = 0
    heap: list[tuple[int, float, int]] = [(0, rng.random(), seed_cell)]
    gain = {seed_cell: 0}
    while heap and count < budget:
        _, _, cell = heapq.heappop(heap)
        if assignment[cell] >= 0:
            continue
        assignment[cell] = part
        count += 1
        for nb in adjacency[cell]:
            nb = int(nb)
            if assignment[nb] >= 0:
                continue
            new_gain = gain.get(nb, 0) + 1
            gain[nb] = new_gain
            heapq.heappush(heap, (-new_gain, rng.random(), nb))


def _kl_refine_pass(adjacency, assignment: np.ndarray, num_parts: int) -> int:
    """One Kernighan–Lin-style boundary pass; returns number of moves.

    A boundary cell moves to the adjacent part with the best edge-cut
    gain, provided the move strictly improves the cut and does not push
    imbalance past one cell swap (size constraint: destination may exceed
    source by at most 1 after the move... i.e. only move from larger or
    equal parts).
    """
    n = len(adjacency)
    sizes = np.bincount(assignment, minlength=num_parts)
    moves = 0
    for cell in range(n):
        here = int(assignment[cell])
        neighbor_parts: dict[int, int] = {}
        internal = 0
        for nb in adjacency[cell]:
            p = int(assignment[nb])
            if p == here:
                internal += 1
            else:
                neighbor_parts[p] = neighbor_parts.get(p, 0) + 1
        if not neighbor_parts:
            continue
        best_part, best_links = max(neighbor_parts.items(), key=lambda kv: kv[1])
        gain = best_links - internal
        if gain <= 0:
            continue
        if sizes[here] == 1:
            # Moving the last cell would empty the part: when num_parts
            # does not divide the cell count, singleton parts are legal
            # and must never be drained for a cut improvement.
            continue
        if sizes[best_part] + 1 > sizes[here] - 1 + 2:
            # Destination would exceed source by more than one cell: the
            # move trades balance for cut, so skip it.
            continue
        assignment[cell] = best_part
        sizes[here] -= 1
        sizes[best_part] += 1
        moves += 1
    return moves
