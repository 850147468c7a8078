"""Algebraic preconditioners (the paper's step iiia).

Setup cost and apply cost are tracked separately because the paper
reports the preconditioner phase as its own curve in the weak-scaling
figures.  All preconditioners expose:

* ``setup_flops`` — estimated flops spent in construction,
* ``apply(v)`` — apply M^{-1} to a vector ``(n,)`` or to every column
  of a block ``(n, m)``, returned in that shape (any other shape is a
  :class:`SolverError`),
* ``apply_flops`` — estimated flops per application,
* ``update(matrix)`` — refresh for new operator *values* on the same
  sparsity pattern, reusing every piece of symbolic structure
  (factor patterns, elimination schedules, position maps) built in
  ``__init__``.  Raises :class:`SolverError` if the pattern changed —
  callers must rebuild in that case.

The update protocol is what lets the time-stepping loops stop paying
full preconditioner setup every step: a BDF step changes only the
operator's ``data`` array, never its pattern.

ILU(0) records its IKJ elimination once, as CSR positions, and replays
it by *waves*.  Step ``t`` of row ``i`` — divide ``a_ik`` by ``u_kk``,
then subtract ``l_ik * u_kj`` along the rest of the row — runs in wave
``1 + max(wave of step t-1, final(k))``, where ``final(k)`` is the wave
of row ``k``'s last step (0 if it has none).  The steps of a wave lie in
distinct rows and read only rows finished in earlier waves, and each
row still takes its own steps in order, so one vectorised update per
wave performs on every entry the subtractions of the row-by-row loop,
in its order: the factors are bit-identical to it, not merely close.
The schedule is built without searching: a target's position comes from
a dense ``(row, column) -> position`` map over a window of rows, and
every index array of it is ``intp``, so no replay casts one.

``apply()`` of ILU(0) and SSOR is two calls into SuperLU objects that
``update()`` refreshes and that hold the triangles themselves (the rule:
:class:`_TriangularSolve`): the factors stay bit-identical, ``apply()``
agrees with ``spsolve_triangular`` (now the test oracle) to rounding.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import SolverError


def _sparse_csr(matrix) -> sp.csr_matrix:
    if not sp.issparse(matrix):
        raise SolverError(f"expected a sparse matrix, got {type(matrix).__name__}")
    return matrix.tocsr()


def _require_square_csr(matrix) -> sp.csr_matrix:
    csr = _sparse_csr(matrix)
    if csr.shape[0] != csr.shape[1]:
        raise SolverError(f"matrix must be square, got {csr.shape}")
    return csr


def _canonical_csr(matrix) -> sp.csr_matrix:
    """``matrix`` as CSR with sorted, duplicate-free indices — the form a
    :class:`_PatternGuard` remembers and compares; copied only if it was
    not in that form already."""
    csr = _sparse_csr(matrix)
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    return csr


def _operand(v, n: int | None) -> np.ndarray:
    """``v`` as an array of shape ``(n,)`` or ``(n, m)``; anything else is
    a :class:`SolverError` (``n`` None: any length)."""
    v = np.asarray(v)
    if v.ndim not in (1, 2) or (n is not None and v.shape[0] != n):
        raise SolverError(f"apply(): expected {n} rows, got shape {v.shape}")
    return v


def _scale_rows(scale: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row ``r`` of ``v`` times ``scale[r]``, for ``(n,)`` and ``(n, m)``."""
    return scale * v if v.ndim == 1 else scale[:, None] * v


def _expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(s, s + c)`` for every (start, count) pair, concatenated."""
    offsets = np.cumsum(counts) - counts
    return np.arange(counts.sum()) + np.repeat(starts - offsets, counts)


# Elimination steps the ILU(0) symbolic phase expands at a time: bounds
# its transient candidate arrays independently of the matrix size.
_SYMBOLIC_CHUNK = 1024

# Cells of the dense (row, column) -> CSR position map the ILU(0)
# symbolic phase reads targets from: it holds as many whole rows as fit,
# so the map is built once while n * n fits and a window at a time after.
_LOOKUP_CELLS = 1 << 20


def _waves(step_k: np.ndarray, num_steps: np.ndarray) -> np.ndarray:
    """The wave of every ILU(0) elimination step, in CSR order: row ``i``
    owns the next ``num_steps[i]`` steps, step ``t`` pivoting on row
    ``step_k[t]``, and the recurrence of the module docstring runs step by
    step on Python ints."""
    k_of_step = step_k.tolist()
    final = [0] * num_steps.size
    wave = []
    a = 0
    for i, count in enumerate(num_steps.tolist()):
        w = 0
        for k in k_of_step[a : a + count]:
            f = final[k]
            w = (w if w > f else f) + 1  # 1 + max(previous step, final[k])
            wave.append(w)
        final[i] = w
        a += count
    return np.array(wave, dtype=np.intp)


class _PatternGuard:
    """Remembers a canonical sparsity pattern and validates refresh
    candidates, canonicalized the same way (:func:`_canonical_csr`)."""

    def __init__(self, csr: sp.csr_matrix, who: str):
        self.shape = csr.shape
        self.indptr = csr.indptr.copy()
        self.indices = csr.indices.copy()
        self.who = who
        # Identity of the last index arrays that passed the full
        # comparison: a time loop refreshing from the same cached
        # pattern (CompositeOperator.combine) revalidates by `is` alone.
        self._validated_indices = csr.indices

    def check(self, matrix) -> sp.csr_matrix:
        """Return ``matrix`` as canonical CSR or raise on a pattern change."""
        csr = _canonical_csr(matrix)
        if csr.shape == self.shape and csr.indices is self._validated_indices:
            return csr
        same = (
            csr.shape == self.shape
            and csr.nnz == self.indices.size
            and (
                csr.indices is self.indices
                or (
                    np.array_equal(csr.indptr, self.indptr)
                    and np.array_equal(csr.indices, self.indices)
                )
            )
        )
        if not same:
            raise SolverError(
                f"{self.who}: sparsity pattern changed since setup; "
                f"rebuild instead"
            )
        self._validated_indices = csr.indices
        return csr


class _TriangularSolve:
    """``b -> T^{-1} b`` for one triangle of a fixed CSR pattern, via ``splu``.

    With pivoting, column ordering, equilibration and relaxed supernodes
    off, SuperLU's factors of a triangle are the triangle itself and the
    identity, entry for entry, under one rule: an upper or a *unit*-lower
    triangle goes in as it is; a non-unit lower one goes in transposed and
    is solved with ``trans="T"``, because eliminating under a non-unit
    diagonal would round the multipliers.  Callers guarantee a nonzero
    diagonal, so no pivot is zero.
    """

    def __init__(self, csr: sp.csr_matrix, lower: bool, unit_diagonal: bool = False):
        n = csr.shape[0]
        rows = np.repeat(np.arange(n, dtype=np.intc), np.diff(csr.indptr))
        transposed = lower and not unit_diagonal
        major, minor = (rows, csr.indices) if transposed else (csr.indices, rows)
        src = np.flatnonzero(csr.indices <= rows if lower else csr.indices >= rows)
        # Row-major entries, stably sorted by column, are column-major.
        self._src = src[np.argsort(major[src], kind="stable")]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(major[src], minlength=n))))
        self._matrix = sp.csc_matrix(
            (np.empty(src.size), minor[self._src], indptr), shape=(n, n)
        )
        self._diag = np.flatnonzero(major[self._src] == minor[self._src])
        self._unit_diagonal = unit_diagonal
        self._trans = "T" if transposed else "N"

    def refactor(self, data: np.ndarray, diagonal=None) -> None:
        """Refill from the pattern's ``data``, the diagonal from ``diagonal``
        if given (from 1 for a unit triangle), and factorize."""
        self._matrix.data[:] = data[self._src]
        if self._unit_diagonal or diagonal is not None:
            self._matrix.data[self._diag] = 1.0 if self._unit_diagonal else diagonal
        self._factorize()

    def _factorize(self) -> None:
        self._lu = None  # the old factor's storage is free before the new one asks
        self._lu = sp.linalg.splu(
            self._matrix, permc_spec="NATURAL", diag_pivot_thresh=0,
            relax=1, panel_size=1, options={"Equil": False},
        )

    def __call__(self, b: np.ndarray) -> np.ndarray:
        """``T^{-1} b`` for a ``b`` the caller checked with :func:`_operand`."""
        return self._lu.solve(b, self._trans)

    def __getstate__(self) -> dict:  # a SuperLU object cannot be pickled
        return {k: v for k, v in self.__dict__.items() if k != "_lu"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._factorize()


class IdentityPreconditioner:
    """No preconditioning; useful as a baseline in ablations."""

    def __init__(self, matrix=None):
        self._n = None if matrix is None else matrix.shape[0]
        self.setup_flops = 0
        self.apply_flops = 0

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``v`` unchanged, once its shape passed the check."""
        return _operand(v, self._n)

    def update(self, matrix=None) -> "IdentityPreconditioner":
        """Nothing to refresh."""
        return self


class JacobiPreconditioner:
    """Diagonal scaling: M = diag(A)."""

    def __init__(self, matrix):
        csr = _require_square_csr(_canonical_csr(matrix))
        self._guard = _PatternGuard(csr, "JacobiPreconditioner.update")
        self.setup_flops = csr.shape[0]
        self.apply_flops = csr.shape[0]
        self._refresh(csr)

    def _refresh(self, csr: sp.csr_matrix) -> None:
        diag = csr.diagonal()
        if np.any(diag == 0.0):
            raise SolverError("Jacobi preconditioner: zero on the diagonal")
        self._inv_diag = 1.0 / diag

    def update(self, matrix) -> "JacobiPreconditioner":
        """Refresh the inverse diagonal for new values, same pattern."""
        self._refresh(self._guard.check(matrix))
        return self

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``D^{-1} v``, row by row."""
        return _scale_rows(self._inv_diag, _operand(v, self._inv_diag.size))


class SSORPreconditioner:
    """Symmetric SOR: M = (D/w + L) (D/w)^{-1} (D/w + U) * w/(2-w).

    Keeps symmetry for SPD A, so it can precondition CG.
    """

    def __init__(self, matrix, omega: float = 1.0):
        if not (0.0 < omega < 2.0):
            raise SolverError(f"SSOR relaxation must be in (0, 2), got {omega}")
        csr = _require_square_csr(_canonical_csr(matrix))
        self._guard = _PatternGuard(csr, "SSORPreconditioner.update")
        self.omega = float(omega)
        self._scale = omega / (2.0 - omega)
        self.setup_flops = 2 * csr.nnz
        self.apply_flops = 4 * csr.nnz
        self._solve_lower = _TriangularSolve(csr, lower=True)
        self._solve_upper = _TriangularSolve(csr, lower=False)
        self.update(csr)

    def update(self, matrix) -> "SSORPreconditioner":
        """Refactor ``D/w + L`` and ``D/w + U`` for new values, same pattern."""
        csr = self._guard.check(matrix)
        diag = csr.diagonal()
        if np.any(diag == 0.0):
            raise SolverError("SSOR preconditioner: zero on the diagonal")
        self._diag_over_w = diag / self.omega
        self._solve_lower.refactor(csr.data, self._diag_over_w)
        self._solve_upper.refactor(csr.data, self._diag_over_w)
        return self

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``M^{-1} v``: the two triangular solves and the scalings between."""
        v = _operand(v, self._diag_over_w.size)
        y = _scale_rows(self._diag_over_w, self._solve_lower(v))
        return self._scale * self._solve_upper(y)


class ILU0Preconditioner:
    """Incomplete LU with zero fill-in on the sparsity pattern of A.

    The IKJ-variant factorization operating directly on CSR arrays; the
    same preconditioner family Trilinos' Ifpack provides to LifeV.
    """

    def __init__(self, matrix):
        csr = _require_square_csr(_canonical_csr(matrix))
        self._guard = _PatternGuard(csr, "ILU0Preconditioner.update")
        n = csr.shape[0]
        indices = csr.indices
        indptr = csr.indptr

        rows = np.repeat(np.arange(n), np.diff(indptr))
        diag_pos = np.flatnonzero(indices == rows)  # ascending; one per row at most
        if diag_pos.size < n:
            raise SolverError("ILU(0): structurally zero diagonal entry")

        # Symbolic phase.  An elimination step (i, k) is a strictly-lower
        # entry; sorted rows hold those first, so in CSR order the steps
        # run row by row.
        num_lower = diag_pos - indptr[:-1]
        step_pos = _expand_ranges(indptr[:-1], num_lower)
        step_k = indices[step_pos]
        wave = _waves(step_k, num_lower)
        order = np.argsort(wave, kind="stable")
        step_ends = np.cumsum(np.bincount(wave))[1:]
        ks = step_k[order]
        step_rows = np.repeat(np.arange(n), num_lower)[order]
        pos = step_pos[order]
        dpos = diag_pos[ks]

        # Step (i, k) draws its sources from the tail of row k after the
        # diagonal; the ones whose column is in row i's pattern, and their
        # targets there, come from a dense map of CSR positions (-1: not
        # in the pattern) over a window of rows.  Window by window, a
        # bounded number of the window's steps at a time, in wave order.
        window = max(1, _LOOKUP_CELLS // max(n, 1))
        lookup = np.full(min(window, n) * n, -1, dtype=indptr.dtype)
        counts = np.empty(pos.size, dtype=np.intp)  # targets per step
        parts = []
        for r0 in range(0, n, window):
            span = slice(indptr[r0], indptr[min(r0 + window, n)])
            cells = (rows[span] - r0) * n + indices[span]
            lookup[cells] = np.arange(span.start, span.stop)
            mine = np.flatnonzero((step_rows >= r0) & (step_rows < r0 + window))
            for lo in range(0, mine.size, _SYMBOLIC_CHUNK):
                s = mine[lo : lo + _SYMBOLIC_CHUNK]
                count = indptr[ks[s] + 1] - dpos[s] - 1
                src = _expand_ranges(dpos[s] + 1, count)
                tgt = lookup[np.repeat((step_rows[s] - r0) * n, count) + indices[src]]
                hit = np.flatnonzero(tgt >= 0)
                counts[s] = np.diff(np.searchsorted(hit, np.cumsum(count)), prepend=0)
                parts.append((s, tgt[hit], src[hit].astype(indptr.dtype)))
            lookup[cells] = -1
        del lookup
        # Each step's targets go where the wave order puts them: one
        # window's parts are in that order already.
        hit_ends = np.cumsum(counts)
        tgts = np.empty(hit_ends[-1] if hit_ends.size else 0, dtype=np.intp)
        srcs = np.empty_like(tgts)
        for s, tgt, src in parts:
            start = hit_ends[s] - counts[s]
            at = slice(start[0], start[0] + tgt.size) if n <= window else (
                _expand_ranges(start, counts[s]))
            tgts[at] = tgt
            srcs[at] = src

        self._schedule = []  # per wave: (pos, dpos, counts, tgts, srcs)
        a = c = 0
        for b, d in zip(step_ends.tolist(), hit_ends[step_ends - 1].tolist()):
            self._schedule.append((pos[a:b], dpos[a:b], counts[a:b], tgts[c:d], srcs[c:d]))
            a, c = b, d
        self._diag_pos = diag_pos
        self.setup_flops = pos.size + 2 * tgts.size

        # Unit-lower L and upper U share one factor array, filled by update().
        self._factors = sp.csr_matrix(
            (np.empty(csr.nnz), indices.copy(), indptr.copy()), shape=(n, n)
        )
        self.apply_flops = 2 * csr.nnz
        self._solve_lower = _TriangularSolve(csr, lower=True, unit_diagonal=True)
        self._solve_upper = _TriangularSolve(csr, lower=False)
        self.update(csr)

    def _numeric(self, data: np.ndarray) -> None:
        """Replay the elimination waves on ``data``, in place."""
        with np.errstate(divide="ignore", invalid="ignore"):
            for pos, dpos, counts, tgts, srcs in self._schedule:
                lik = data[pos] / data[dpos]
                data[pos] = lik
                data[tgts] -= lik.repeat(counts) * data[srcs]
        # A pivot is read once its row is finished, so it is that row's
        # final diagonal: one check after the replay covers every division
        # (and the rows no step divides by, still pivots of apply()).
        if (data[self._diag_pos] == 0.0).any():
            raise SolverError("ILU(0): zero pivot during factorization")

    def update(self, matrix) -> "ILU0Preconditioner":
        """Re-run the numeric factorization on the cached symbolic schedule.

        A refused update leaves ``apply()`` as it was."""
        csr = self._guard.check(matrix)
        data = self._factors.data
        data[:] = csr.data
        self._numeric(data)
        self._solve_lower.refactor(data)
        self._solve_upper.refactor(data)
        return self

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``U^{-1} L^{-1} v``."""
        v = _operand(v, self._factors.shape[0])
        return self._solve_upper(self._solve_lower(v))


class BlockJacobiPreconditioner:
    """Block-Jacobi / one-level additive Schwarz without overlap.

    The domain-decomposition preconditioner that mirrors how the parallel
    runs precondition: each rank factorizes its diagonal block and
    applications need no communication.  ``blocks`` is a list of index
    arrays (one per subdomain); each local solver is ILU(0) of its
    diagonal block.
    """

    def __init__(self, matrix, blocks: list[np.ndarray]):
        csr = _require_square_csr(matrix)
        n = csr.shape[0]
        cover = np.concatenate([np.asarray(b, dtype=np.int64) for b in blocks]) if blocks else np.array([], dtype=np.int64)
        if cover.size != n or np.unique(cover).size != n:
            raise SolverError(
                "block-Jacobi blocks must partition the index set exactly"
            )
        self._n = n
        self._blocks = [np.asarray(b, dtype=np.int64) for b in blocks]
        self._local = [None] * len(self._blocks)
        self.update(csr)

    def update(self, matrix) -> "BlockJacobiPreconditioner":
        """Refresh (or, on the first call, build) every local block
        solver for new operator values."""
        csr = _require_square_csr(matrix)
        self.setup_flops = 0
        self.apply_flops = 0
        for i, idx in enumerate(self._blocks):
            sub = csr[idx][:, idx].tocsr()
            solver = self._local[i]
            if solver is None:
                solver = self._local[i] = ILU0Preconditioner(sub)
            else:
                solver.update(sub)
            self.setup_flops += solver.setup_flops
            self.apply_flops += solver.apply_flops
        return self

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Every block's local solve on its rows of ``v``."""
        v = _operand(v, self._n)
        out = np.empty(v.shape)  # the blocks cover every row
        for idx, solver in zip(self._blocks, self._local):
            out[idx] = solver.apply(v[idx])
        return out


_PRECONDITIONERS = {
    "none": IdentityPreconditioner,
    "identity": IdentityPreconditioner,
    "jacobi": JacobiPreconditioner,
    "ssor": SSORPreconditioner,
    "ilu0": ILU0Preconditioner,
}


def make_preconditioner(name: str, matrix, **kwargs):
    """Build a preconditioner by name ('none', 'jacobi', 'ssor', 'ilu0')."""
    try:
        cls = _PRECONDITIONERS[name.lower()]
    except KeyError:
        raise SolverError(
            f"unknown preconditioner {name!r}; choose from {sorted(_PRECONDITIONERS)}"
        ) from None
    return cls(matrix, **kwargs)
