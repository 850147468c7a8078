"""Distributed vectors, matrices and CG over the simmpi runtime.

This is the executable analogue of the paper's Trilinos (Epetra) layer:
"matrices and vectors are distributed and need to be updated via a
message passing interface".  Each rank owns a disjoint set of global row
indices; off-rank columns referenced by the local rows become *ghosts*
whose values are refreshed by point-to-point halo exchanges before every
matvec.  Dot products are local dots combined with an allreduce.

Because simmpi executes messages for real, the distributed CG here
produces (up to floating-point reduction order) the same iterates as the
sequential solver — which the tests assert.  The virtual cost of every
halo exchange and allreduce lands on the ranks' clocks through the
platform's network model, which is how the solver phase acquires its
platform-dependent timing in the weak-scaling experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import SolverError
from repro.la.krylov import SolveResult
from repro.la.preconditioners import ILU0Preconditioner, _canonical_csr, _PatternGuard
from repro.obs.core import current as _obs_current
from repro.simmpi.comm import Communicator
from repro.simmpi.datatypes import SUM


def owned_ranges(num_dofs: int, num_ranks: int) -> list[np.ndarray]:
    """Contiguous, balanced ownership ranges for ``num_dofs`` over ranks."""
    if num_ranks < 1:
        raise SolverError(f"num_ranks must be >= 1, got {num_ranks}")
    if num_dofs < num_ranks:
        raise SolverError(f"cannot distribute {num_dofs} dofs over {num_ranks} ranks")
    return [np.asarray(chunk) for chunk in np.array_split(np.arange(num_dofs), num_ranks)]


def _checked_ownership(
    ownership: list[np.ndarray] | None, n: int, num_ranks: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """``ownership`` (default :func:`owned_ranges`) as int64 arrays, and
    the owner of every dof; each dof must be owned exactly once."""
    if ownership is None:
        ownership = owned_ranges(n, num_ranks)
    if len(ownership) != num_ranks:
        raise SolverError(f"ownership has {len(ownership)} entries for {num_ranks} ranks")
    ownership = [np.asarray(idx, dtype=np.int64) for idx in ownership]
    flat = np.concatenate(ownership)
    if not np.array_equal(np.sort(flat), np.arange(n)):
        raise SolverError("ownership arrays must cover every dof exactly once")
    owner_of = np.empty(n, dtype=np.int64)
    owner_of[flat] = np.repeat(np.arange(num_ranks), [idx.size for idx in ownership])
    return ownership, owner_of


@dataclass
class ExchangePlan:
    """Who sends what during a ghost update.

    ``send_to[dest]`` — local positions (in the owned block) whose values
    this rank ships to ``dest``;
    ``recv_from[src]`` — ghost-buffer positions filled by ``src``'s data.
    """

    send_to: dict[int, np.ndarray]
    recv_from: dict[int, np.ndarray]


class DistVector:
    """A distributed vector: owned block plus ghost buffer.

    When built against a globally-numbered :class:`DistMatrix` (the
    malleable-run path, ``docs/elasticity.md``) the vector also carries
    its owned *global* indices and a ``deterministic`` flag: dot
    products then reassemble the full element-wise product vector on
    every rank and reduce it in global index order, making the scalar
    bit-identical at any rank count (including ``p = 1``).
    """

    def __init__(self, comm: Communicator, owned_values: np.ndarray, num_ghosts: int = 0,
                 owned_indices: np.ndarray | None = None, deterministic: bool = False):
        self.comm = comm
        self.owned = np.asarray(owned_values, dtype=float).copy()
        self.ghosts = np.zeros(num_ghosts)
        self.owned_indices = (
            None if owned_indices is None
            else np.asarray(owned_indices, dtype=np.int64)
        )
        self.deterministic = bool(deterministic and self.owned_indices is not None)

    def copy(self) -> "DistVector":
        out = DistVector(self.comm, self.owned, self.ghosts.shape[0],
                         owned_indices=self.owned_indices,
                         deterministic=self.deterministic)
        out.ghosts[:] = self.ghosts
        return out

    def dot(self, other: "DistVector") -> float:
        """Global dot product: local dot + allreduce(SUM).

        The reduction goes through the adaptive collective layer
        (``algorithm="auto"``); at these scalar payloads the selector
        resolves to recursive doubling on every modeled platform.
        In deterministic mode the reduction order is the global index
        order instead (rank-count independent bit pattern).
        """
        if self.deterministic:
            return float(self._deterministic_dots([(self, other)])[0])
        local = float(self.owned @ other.owned)
        return float(self.comm.allreduce(local, op=SUM, site="la.dot"))

    def dot_many(self, pairs: list[tuple["DistVector", "DistVector"]]) -> np.ndarray:
        """Several global dot products in ONE allreduce round.

        The communication-reduced CG fuses its per-iteration reductions
        through this: the local partial dots ride together in a single
        small array, so latency is paid once instead of once per dot.
        """
        if self.deterministic:
            return self._deterministic_dots(pairs)
        local = np.array([float(a.owned @ b.owned) for a, b in pairs])
        return np.asarray(
            self.comm.allreduce(local, op=SUM, site="la.dot_many"), dtype=float
        )

    def _deterministic_dots(
        self, pairs: list[tuple["DistVector", "DistVector"]]
    ) -> np.ndarray:
        """Rank-count-invariant dots: allgather element-wise products and
        reduce them in global index order.

        Every rank ships its owned product block (not the partial sum),
        scatters the pieces into one global array, and sums that — so
        the floating-point reduction tree is a function of the *global*
        vector alone, never of how it is split over ranks.  This is what
        pins the bit-consistent repartitioned-resume guarantee of the
        malleable layer; it trades one scalar per dot for ``n`` doubles
        of traffic, which the elasticity experiments accept knowingly.
        """
        local = np.stack([a.owned * b.owned for a, b in pairs])
        pieces = self.comm.allgather((self.owned_indices, local))
        total = sum(int(idx.size) for idx, _ in pieces)
        out = np.empty((len(pairs), total))
        for idx, vals in pieces:
            out[:, idx] = vals
        return np.sum(out, axis=1)

    def norm(self) -> float:
        """Global 2-norm."""
        return float(np.sqrt(max(self.dot(self), 0.0)))

    def axpy(self, alpha: float, other: "DistVector") -> None:
        """self += alpha * other (owned blocks only; ghosts go stale)."""
        self.owned += alpha * other.owned

    def scale(self, alpha: float) -> None:
        """self *= alpha."""
        self.owned *= alpha


class DistMatrix:
    """Row-distributed CSR matrix with ghost-column exchange.

    Build with :meth:`from_rows`: every rank passes only the rows it
    owns, with global column indices (what parallel assembly produces),
    plus the ownership map; :meth:`update_rows` refreshes their values in
    place.  :meth:`from_global` / :meth:`update_values` take a global
    matrix instead and hand its owned rows to those two.  Nothing passed
    in is written, so the matrices may be shared read-only ones.
    """

    def __init__(
        self,
        comm: Communicator,
        local_rows: sp.csr_matrix,
        owned_indices: np.ndarray,
        ghost_indices: np.ndarray,
        plan: ExchangePlan,
        data_map: np.ndarray,
        rows_pattern: sp.csr_matrix,
        numbering: str = "owned-first",
        full_order: np.ndarray | None = None,
        owned_col_positions: np.ndarray | None = None,
    ):
        self.comm = comm
        self.local_rows = local_rows
        self.owned_indices = owned_indices
        self.ghost_indices = ghost_indices
        self.plan = plan
        # Permutation from the owned rows' CSR data positions to local
        # storage order; lets update_rows() refresh in place with zero
        # communication (the structure and exchange plan are reused).
        self._data_map = data_map
        self._guard = _PatternGuard(rows_pattern, "DistMatrix.update_rows")
        self.numbering = numbering
        # Under global column numbering, the permutation taking the
        # storage-ordered [owned | ghosts] concatenation to ascending
        # global index order (None under owned-first numbering).
        self._full_order = full_order
        self._owned_col_positions = (
            owned_col_positions if owned_col_positions is not None
            else np.arange(owned_indices.size, dtype=np.int64)
        )
        # local_diagonal_block(): the block and its gather map from local_rows.
        self._diagonal_block = None
        self._diagonal_map = None

    @classmethod
    def from_global(
        cls,
        comm: Communicator,
        global_matrix: sp.csr_matrix,
        ownership: list[np.ndarray] | None = None,
        numbering: str = "owned-first",
    ) -> "DistMatrix":
        """Distribute ``global_matrix`` by rows: :meth:`from_rows` of its
        owned rows.  Collective: all ranks call with identical arguments."""
        gcsr = _canonical_csr(global_matrix)
        if gcsr.shape[0] != gcsr.shape[1]:
            raise SolverError(f"global matrix must be square, got {gcsr.shape}")
        ownership, _ = _checked_ownership(ownership, gcsr.shape[0], comm.size)
        return cls.from_rows(comm, gcsr[ownership[comm.rank]], ownership, numbering)

    @classmethod
    def from_rows(
        cls,
        comm: Communicator,
        rows: sp.csr_matrix,
        ownership: list[np.ndarray] | None = None,
        numbering: str = "owned-first",
    ) -> "DistMatrix":
        """Distribute an ``n x n`` matrix of which this rank holds ``rows``.

        ``rows`` is ``(len(owned), n)``: row ``i`` is global row
        ``ownership[comm.rank][i]``, columns are global.  ``ownership``
        is one index array per rank (defaults to contiguous balanced
        ranges).  Collective: every rank calls with its own rows and the
        same ``ownership`` and ``numbering``; the ghosts, the local column
        numbering and the exchange plan follow from the rows' pattern.

        ``numbering`` picks the local column numbering.  The default
        ``"owned-first"`` packs owned columns before ghosts (the classic
        Epetra layout).  ``"global"`` renumbers local columns
        monotonically in ascending *global* index order instead, so each
        local CSR row accumulates its matvec contribution in exactly the
        order the undistributed row would — the per-row result is then
        bit-identical at every rank count.  Vectors extracted from a
        globally-numbered matrix carry the deterministic-dot flag (see
        :class:`DistVector`), which together makes whole Krylov
        trajectories rank-count invariant.
        """
        if numbering not in ("owned-first", "global"):
            raise SolverError(
                f"numbering must be 'owned-first' or 'global', got {numbering!r}"
            )
        rows = _canonical_csr(rows)
        n = rows.shape[1]
        ownership, owner_of = _checked_ownership(ownership, n, comm.size)
        owned = ownership[comm.rank]
        if rows.shape[0] != owned.size:
            raise SolverError(
                f"rank {comm.rank} owns {owned.size} rows, got {rows.shape[0]}"
            )
        referenced = np.unique(rows.indices)
        ghost_mask = owner_of[referenced] != comm.rank
        ghosts = referenced[ghost_mask]

        col_map = np.full(n, -1, dtype=np.int64)
        full_order = None
        if numbering == "global":
            # Monotone renumbering: local columns in ascending global
            # index order, so CSR row accumulation order matches the
            # undistributed matrix bit for bit.
            merged = np.concatenate([owned, ghosts])
            full_order = np.argsort(merged)
            col_map[merged[full_order]] = np.arange(merged.size)
        else:
            # Owned dofs -> [0, n_owned), ghosts -> following.
            col_map[owned] = np.arange(owned.size)
            col_map[ghosts] = owned.size + np.arange(ghosts.size)
        width = owned.size + ghosts.size
        local_cols = col_map[rows.indices]
        # Each local row sorted by local column; the sort is also the
        # refresh permutation (the identity under global numbering).
        row_ids = np.repeat(np.arange(owned.size, dtype=np.int64), np.diff(rows.indptr))
        data_map = np.argsort(row_ids * width + local_cols, kind="stable")
        local_rows = sp.csr_matrix(
            (rows.data[data_map], local_cols[data_map], rows.indptr.copy()),
            shape=(owned.size, width),
        )

        # Build the exchange plan: tell each owner which of its dofs we
        # need.  A stable sort by owner keeps each request in ascending
        # global order (``ghosts`` is sorted), and the sorted positions
        # ARE the ghost-buffer positions the replies fill.
        ghost_owner = owner_of[ghosts]
        by_owner = np.argsort(ghost_owner, kind="stable")
        bounds = np.searchsorted(ghost_owner[by_owner], np.arange(comm.size + 1))
        ghost_slots = [by_owner[bounds[r]:bounds[r + 1]] for r in range(comm.size)]
        all_needs = comm.alltoall(
            [ghosts[slots].astype(np.int64) for slots in ghost_slots]
        )

        # ``owned`` is caller-ordered: look requests up through a sorter.
        sorter = np.argsort(owned)
        send_to = {
            src: sorter[np.searchsorted(owned, requested, sorter=sorter)]
            for src, requested in enumerate(all_needs)
            if len(requested)
        }
        recv_from = {
            owner: slots for owner, slots in enumerate(ghost_slots) if slots.size
        }
        plan = ExchangePlan(send_to=send_to, recv_from=recv_from)
        return cls(
            comm,
            local_rows,
            owned,
            ghosts,
            plan,
            data_map=data_map,
            rows_pattern=rows,
            numbering=numbering,
            full_order=full_order,
            owned_col_positions=col_map[owned],
        )

    def update_rows(self, rows: sp.csr_matrix) -> "DistMatrix":
        """Refresh local values from this rank's owned rows, same pattern.

        Communication-free: the ghost structure, exchange plan, and
        column renumbering built by :meth:`from_rows` are reused and
        only ``local_rows.data`` is rewritten.  This is the distributed
        half of the incremental time loop — each BDF step changes
        operator values, never the pattern, so the per-step alltoall of
        a fresh :meth:`from_rows` is pure waste.  A different pattern
        raises :class:`SolverError`, even one with the same nnz (checked
        by identity for the index array last validated, as a
        preconditioner's ``update`` checks it).
        """
        rows = self._guard.check(rows)
        self.local_rows.data[:] = rows.data[self._data_map]
        return self

    def update_values(self, global_matrix: sp.csr_matrix) -> "DistMatrix":
        """:meth:`update_rows` from a same-pattern global matrix's owned rows."""
        return self.update_rows(_canonical_csr(global_matrix)[self.owned_indices])

    # -- vectors -----------------------------------------------------------

    def vector(self, owned_values: np.ndarray) -> DistVector:
        """This rank's DistVector holding ``owned_values`` (its owned block).

        Vectors from a globally-numbered matrix carry the
        deterministic-dot flag so every reduction taken on them is
        rank-count invariant.
        """
        deterministic = self.numbering == "global"
        return DistVector(self.comm, owned_values, self.ghost_indices.size,
                          owned_indices=self.owned_indices if deterministic else None,
                          deterministic=deterministic)

    def vector_from_global(self, global_values: np.ndarray) -> DistVector:
        """Extract this rank's DistVector from a global vector (:meth:`vector`)."""
        return self.vector(np.asarray(global_values)[self.owned_indices])

    def gather_global(self, vector: DistVector, root: int = 0) -> np.ndarray | None:
        """Reassemble the global vector on ``root`` (None elsewhere)."""
        pieces = self.comm.gather((self.owned_indices, vector.owned), root=root)
        if pieces is None:
            return None
        total = sum(idx.size for idx, _ in pieces)
        out = np.empty(total)
        for idx, vals in pieces:
            out[idx] = vals
        return out

    def allgather_global(self, owned_values: np.ndarray) -> np.ndarray:
        """The global vector on every rank, from each rank's owned block.

        Takes the bare owned array a solver returns as ``SolveResult.x``.
        Deliberately a gather to rank 0 followed by a broadcast, not an
        allgather: the replicated time loops have always moved their
        solution this way, and the recorded message patterns pin it.
        """
        vector = DistVector(self.comm, owned_values, self.ghost_indices.size)
        return self.comm.bcast(self.gather_global(vector, root=0), root=0)

    # -- operations --------------------------------------------------------

    def update_ghosts(self, vector: DistVector) -> None:
        """Halo exchange: refresh ``vector.ghosts`` from owner ranks."""
        tag = 101
        for dest, positions in self.plan.send_to.items():
            self.comm.send(vector.owned[positions], dest=dest, tag=tag)
        for src, ghost_positions in self.plan.recv_from.items():
            data = self.comm.recv(source=src, tag=tag)
            vector.ghosts[ghost_positions] = data

    def matvec(self, vector: DistVector) -> DistVector:
        """y = A x with a ghost update first."""
        self.update_ghosts(vector)
        full = np.concatenate([vector.owned, vector.ghosts])
        if self._full_order is not None:
            full = full[self._full_order]
        result = self.local_rows @ full
        return DistVector(self.comm, result, self.ghost_indices.size,
                          owned_indices=vector.owned_indices,
                          deterministic=vector.deterministic)

    def diagonal(self) -> np.ndarray:
        """Owned diagonal entries (for Jacobi preconditioning)."""
        # Column of owned dof i is its renumbered position (identity
        # under owned-first numbering, global rank under "global").
        return np.asarray(
            self.local_rows[np.arange(self.owned_indices.size),
                            self._owned_col_positions]
        ).ravel()

    def local_diagonal_block(self) -> sp.csr_matrix:
        """The owned-by-owned block (for block-Jacobi / additive Schwarz).

        Sliced once; every later call refreshes the same matrix's ``data``
        in place from ``local_rows`` (as :meth:`update_values` refreshes
        those) and returns it, so a preconditioner's pattern check sees
        the index arrays it validated before.
        """
        if self._diagonal_block is None:
            # Slice the CSR positions (1-based: none is a zero to prune)
            # to get the block's pattern and its gather map in one go.
            rows = self.local_rows
            positions = sp.csr_matrix(
                (np.arange(1, rows.nnz + 1, dtype=np.int64), rows.indices, rows.indptr),
                shape=rows.shape,
            )[:, self._owned_col_positions].tocsr()
            self._diagonal_map = positions.data - 1
            positions.data = rows.data[self._diagonal_map]
            self._diagonal_block = positions
        else:
            self._diagonal_block.data[:] = self.local_rows.data[self._diagonal_map]
        return self._diagonal_block


class DistJacobiPreconditioner:
    """Diagonal preconditioner on the owned block — communication-free."""

    def __init__(self, matrix: DistMatrix):
        self._comm = matrix.comm
        self._num_ghosts = matrix.ghost_indices.size
        self.update(matrix)

    def update(self, matrix: DistMatrix) -> "DistJacobiPreconditioner":
        """Refresh the inverse diagonal for new values (communication-free)."""
        diag = matrix.diagonal()
        if np.any(diag == 0.0):
            raise SolverError("distributed Jacobi: zero diagonal entry")
        self._inv = 1.0 / diag
        return self

    def apply(self, vector: DistVector) -> DistVector:
        _obs_current().count("precond_applies_total", kind="jacobi")
        return DistVector(self._comm, self._inv * vector.owned, self._num_ghosts,
                          owned_indices=vector.owned_indices,
                          deterministic=vector.deterministic)


class DistBlockJacobiPreconditioner:
    """Each rank solves its own diagonal block with a local factorization.

    The parallel preconditioner of the paper's runs (one-level additive
    Schwarz without overlap): setup and application are entirely local,
    which is why the preconditioner phase scales flat in Figure 4 while
    the solve phase (halo exchanges + allreduce latency) does not.
    """

    def __init__(self, matrix: DistMatrix):
        self._local = ILU0Preconditioner(matrix.local_diagonal_block())
        self._comm = matrix.comm
        self._num_ghosts = matrix.ghost_indices.size
        self.setup_flops = self._local.setup_flops

    def update(self, matrix: DistMatrix) -> "DistBlockJacobiPreconditioner":
        """Refresh the local block factorization (communication-free)."""
        self._local.update(matrix.local_diagonal_block())
        self.setup_flops = self._local.setup_flops
        return self

    def apply(self, vector: DistVector) -> DistVector:
        _obs_current().count("precond_applies_total", kind="block-jacobi")
        return DistVector(self._comm, self._local.apply(vector.owned), self._num_ghosts)


def dist_cg(
    matrix: DistMatrix,
    b: DistVector,
    preconditioner=None,
    tol: float = 1e-10,
    maxiter: int = 1000,
) -> SolveResult:
    """Distributed preconditioned CG — the same algorithm as
    :func:`repro.la.krylov.cg` with distributed primitives, from a zero
    initial guess.

    Returns a :class:`SolveResult` whose ``x`` is this rank's owned block.
    """
    comm = matrix.comm
    x = DistVector(comm, np.zeros_like(b.owned), matrix.ghost_indices.size)
    result = SolveResult(x=x.owned, converged=False, iterations=0, residual_norm=np.inf)

    b_norm = b.norm()
    result.allreduce_rounds += 1
    if b_norm == 0.0:
        result.converged = True
        result.residual_norm = 0.0
        result.residuals = [0.0]
        return result
    threshold = tol * b_norm

    ax = matrix.matvec(x)
    result.matvecs += 1
    r = b.copy()
    r.axpy(-1.0, ax)
    z = preconditioner.apply(r) if preconditioner else r.copy()
    result.precond_applies += 1
    p = z.copy()
    rz = r.dot(z)
    result.dot_products += 1
    res_norm = r.norm()
    result.dot_products += 1
    result.allreduce_rounds += 2
    result.residuals.append(res_norm)

    obs = _obs_current()
    for it in range(1, maxiter + 1):
        if res_norm <= threshold:
            break
        with obs.span("cg_iteration", variant="classic", iteration=it):
            ap = matrix.matvec(p)
            result.matvecs += 1
            pap = p.dot(ap)
            result.dot_products += 1
            result.allreduce_rounds += 1
            if pap <= 0.0:
                raise SolverError(f"distributed CG breakdown: p^T A p = {pap:.3e}")
            alpha = rz / pap
            x.axpy(alpha, p)
            r.axpy(-alpha, ap)
            result.axpys += 2
            z = preconditioner.apply(r) if preconditioner else r.copy()
            result.precond_applies += 1
            rz_new = r.dot(z)
            result.dot_products += 1
            beta = rz_new / rz
            rz = rz_new
            p.scale(beta)
            p.axpy(1.0, z)
            result.axpys += 1
            res_norm = r.norm()
            result.dot_products += 1
            result.allreduce_rounds += 2
            result.iterations = it
            result.residuals.append(res_norm)
    obs.count("cg_iterations_total", float(result.iterations), variant="classic")

    result.x = x.owned
    result.residual_norm = res_norm
    result.converged = res_norm <= threshold
    return result


def dist_cg_fused(
    matrix: DistMatrix,
    b: DistVector,
    x0: DistVector | None = None,
    preconditioner=None,
    tol: float = 1e-10,
    maxiter: int = 1000,
) -> SolveResult:
    """Communication-reduced preconditioned CG (Chronopoulos–Gear).

    Mathematically equivalent to :func:`dist_cg` but restructured so the
    three per-iteration reductions (r·z, the search-direction curvature,
    and the residual norm) ride in ONE batched allreduce — exactly one
    allreduce round per iteration instead of three.  On latency-bound
    fabrics (the paper's GbE platforms) the solve phase is dominated by
    these small-message rounds, so cutting them 3× is the single largest
    lever the solver has.

    Recurrences (u = M⁻¹r, w = A u):

        p ← u + β p        s ← w + β s
        x ← x + α p        r ← r − α s
        γ = r·u   δ = w·u   ρ = r·r      (one fused allreduce)
        β = γ⁺/γ   α = γ⁺ / (δ − β γ⁺ / α_old)

    The iterates match classic PCG in exact arithmetic; in floating
    point they agree to solver tolerance (asserted by the tests).
    """
    comm = matrix.comm
    nghost = matrix.ghost_indices.size
    x = x0.copy() if x0 is not None else DistVector(comm, np.zeros_like(b.owned), nghost)
    result = SolveResult(x=x.owned, converged=False, iterations=0, residual_norm=np.inf)

    def precond(v: DistVector) -> DistVector:
        result.precond_applies += 1
        return preconditioner.apply(v) if preconditioner else v.copy()

    # Round 1: ||b|| and the initial residual quantities can't be fused
    # (the threshold gates the solve), so the startup costs two rounds.
    b_norm = b.norm()
    result.allreduce_rounds += 1
    result.dot_products += 1
    if b_norm == 0.0:
        result.converged = True
        result.residual_norm = 0.0
        result.residuals = [0.0]
        return result
    threshold = tol * b_norm

    r = b.copy()
    if x0 is not None:
        ax = matrix.matvec(x)
        result.matvecs += 1
        r.axpy(-1.0, ax)
    u = precond(r)
    w = matrix.matvec(u)
    result.matvecs += 1

    # Round 2: fused [r·u, w·u, r·r].
    gamma, delta, rr = r.dot_many([(r, u), (w, u), (r, r)])
    result.dot_products += 3
    result.allreduce_rounds += 1
    res_norm = float(np.sqrt(max(rr, 0.0)))
    result.residuals.append(res_norm)
    if res_norm <= threshold:
        result.x = x.owned
        result.residual_norm = res_norm
        result.converged = True
        return result
    if delta <= 0.0:
        raise SolverError(f"fused CG breakdown: u^T A u = {delta:.3e}")
    alpha = gamma / delta
    p = u.copy()
    s = w.copy()

    obs = _obs_current()
    for it in range(1, maxiter + 1):
        with obs.span("cg_iteration", variant="fused", iteration=it):
            x.axpy(alpha, p)
            r.axpy(-alpha, s)
            result.axpys += 2
            u = precond(r)
            w = matrix.matvec(u)
            result.matvecs += 1
            # THE round: every reduction of this iteration, one allreduce.
            gamma_new, delta, rr = r.dot_many([(r, u), (w, u), (r, r)])
            result.dot_products += 3
            result.allreduce_rounds += 1
            res_norm = float(np.sqrt(max(rr, 0.0)))
            result.iterations = it
            result.residuals.append(res_norm)
        if res_norm <= threshold:
            break
        beta = gamma_new / gamma
        denom = delta - beta * gamma_new / alpha
        if denom == 0.0:
            raise SolverError("fused CG breakdown: zero curvature denominator")
        alpha = gamma_new / denom
        gamma = gamma_new
        p.scale(beta)
        p.axpy(1.0, u)
        s.scale(beta)
        s.axpy(1.0, w)
        result.axpys += 2
    obs.count("cg_iterations_total", float(result.iterations), variant="fused")

    result.x = x.owned
    result.residual_norm = res_norm
    result.converged = res_norm <= threshold
    return result


def dist_bicgstab(
    matrix: DistMatrix,
    b: DistVector,
    x0: DistVector | None = None,
    tol: float = 1e-10,
    maxiter: int = 1000,
) -> SolveResult:
    """Distributed BiCGStab — the nonsymmetric companion of
    :func:`dist_cg`, used unpreconditioned by the distributed
    Navier-Stokes momentum solves.  Same van der Vorst recurrence as
    :func:`repro.la.krylov.bicgstab` with distributed primitives.
    """
    comm = matrix.comm
    nghost = matrix.ghost_indices.size
    x = x0.copy() if x0 is not None else DistVector(comm, np.zeros_like(b.owned), nghost)
    result = SolveResult(x=x.owned, converged=False, iterations=0, residual_norm=np.inf)

    def fresh(values: np.ndarray) -> DistVector:
        return DistVector(comm, values, nghost)

    b_norm = b.norm()
    if b_norm == 0.0:
        result.converged = True
        result.residual_norm = 0.0
        result.residuals = [0.0]
        return result
    threshold = tol * b_norm

    ax = matrix.matvec(x)
    result.matvecs += 1
    r = b.copy()
    r.axpy(-1.0, ax)
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = fresh(np.zeros_like(b.owned))
    p = fresh(np.zeros_like(b.owned))
    res_norm = r.norm()
    result.dot_products += 1
    result.residuals.append(res_norm)

    for it in range(1, maxiter + 1):
        if res_norm <= threshold:
            break
        rho_new = r_hat.dot(r)
        result.dot_products += 1
        if rho_new == 0.0:
            raise SolverError("distributed BiCGStab breakdown: rho = 0")
        if it == 1:
            p = r.copy()
        else:
            beta = (rho_new / rho) * (alpha / omega)
            # p = r + beta * (p - omega * v)
            p.axpy(-omega, v)
            p.scale(beta)
            p.axpy(1.0, r)
            result.axpys += 2
        rho = rho_new
        p_hat = p.copy()
        result.precond_applies += 1
        v = matrix.matvec(p_hat)
        result.matvecs += 1
        denom = r_hat.dot(v)
        result.dot_products += 1
        if denom == 0.0:
            raise SolverError("distributed BiCGStab breakdown: r_hat . v = 0")
        alpha = rho / denom
        s = r.copy()
        s.axpy(-alpha, v)
        result.axpys += 1
        s_norm = s.norm()
        result.dot_products += 1
        if s_norm <= threshold:
            x.axpy(alpha, p_hat)
            result.axpys += 1
            res_norm = s_norm
            result.iterations = it
            result.residuals.append(res_norm)
            break
        s_hat = s.copy()
        result.precond_applies += 1
        t = matrix.matvec(s_hat)
        result.matvecs += 1
        tt = t.dot(t)
        result.dot_products += 1
        if tt == 0.0:
            raise SolverError("distributed BiCGStab breakdown: t . t = 0")
        omega = t.dot(s) / tt
        result.dot_products += 1
        if omega == 0.0:
            raise SolverError("distributed BiCGStab breakdown: omega = 0")
        x.axpy(alpha, p_hat)
        x.axpy(omega, s_hat)
        r = s
        r.axpy(-omega, t)
        result.axpys += 3
        res_norm = r.norm()
        result.dot_products += 1
        result.iterations = it
        result.residuals.append(res_norm)

    _obs_current().count(
        "cg_iterations_total", float(result.iterations), variant="bicgstab"
    )
    result.x = x.owned
    result.residual_norm = res_norm
    result.converged = res_norm <= threshold
    return result
