"""Dirichlet boundary condition application.

Both paper test cases prescribe the exact solution on the whole boundary
of the cube.  Conditions are imposed algebraically after assembly, with
either symmetric elimination (keeps SPD operators SPD so CG remains
applicable) or plain row replacement.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import AssemblyError


def apply_dirichlet(
    matrix: sp.csr_matrix,
    rhs: np.ndarray,
    dofs: np.ndarray,
    values: np.ndarray | float,
    symmetric: bool = True,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Impose ``u[dofs] = values`` on the linear system.

    Returns a new ``(matrix, rhs)`` pair; inputs are not modified.

    With ``symmetric=True`` the constrained columns are eliminated into
    the right-hand side (``rhs -= A[:, dofs] @ values``) before zeroing
    rows *and* columns, preserving symmetry/definiteness.  With
    ``symmetric=False`` only rows are replaced.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise AssemblyError(f"matrix must be square, got {matrix.shape}")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise AssemblyError(f"rhs shape {rhs.shape} != ({n},)")
    dofs = np.asarray(dofs, dtype=np.int64)
    if dofs.size and (dofs.min() < 0 or dofs.max() >= n):
        raise AssemblyError("Dirichlet dof index out of range")
    if np.unique(dofs).size != dofs.size:
        raise AssemblyError("duplicate Dirichlet dofs")

    vals = np.asarray(values, dtype=float)
    if vals.ndim == 0:
        vals = np.full(dofs.shape, float(vals))
    if vals.shape != dofs.shape:
        raise AssemblyError(f"values shape {vals.shape} != dofs shape {dofs.shape}")

    keep = np.ones(n)
    keep[dofs] = 0.0
    pin = 1.0 - keep
    d_keep = sp.diags(keep)
    d_pin = sp.diags(pin)

    new_rhs = rhs.copy()
    if symmetric:
        # Move known-value contributions to the RHS, then clear rows+cols.
        g = np.zeros(n)
        g[dofs] = vals
        new_rhs -= matrix @ g
        new_matrix = (d_keep @ matrix @ d_keep + d_pin).tocsr()
    else:
        new_matrix = (d_keep @ matrix + d_pin).tocsr()
    new_rhs[dofs] = vals
    return new_matrix, new_rhs


def lift_dirichlet_rhs(
    matrix: sp.csr_matrix, dofs: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """The RHS correction ``-A @ g`` for Dirichlet lifting alone.

    Useful when the constrained operator is assembled once but boundary
    values change every time step (the RD problem: boundary data depends
    on t).
    """
    n = matrix.shape[0]
    g = np.zeros(n)
    g[np.asarray(dofs, dtype=np.int64)] = np.asarray(values, dtype=float)
    return -(matrix @ g)


def constrain_operator(matrix: sp.csr_matrix, dofs: np.ndarray) -> sp.csr_matrix:
    """Zero Dirichlet rows and columns and put 1 on their diagonal.

    The time-loop fast path: constrain the (step-invariant) operator once,
    recompute only the RHS lifting each step.
    """
    n = matrix.shape[0]
    keep = np.ones(n)
    keep[np.asarray(dofs, dtype=np.int64)] = 0.0
    d_keep = sp.diags(keep)
    d_pin = sp.diags(1.0 - keep)
    return (d_keep @ matrix @ d_keep + d_pin).tocsr()


class DirichletPlan:
    """Precomputed Dirichlet elimination for a fixed sparsity pattern.

    :func:`apply_dirichlet` pays two sparse matrix products per call to
    zero rows and columns; inside a time loop the operator pattern never
    changes, so the positions of the entries to clear and of the
    constrained diagonal can be computed once.  ``apply`` then edits the
    CSR ``data`` array in place — no allocation, no pattern work — and
    produces values bit-identical to :func:`apply_dirichlet`.

    With ``symmetric=True`` (default) columns are eliminated into the
    right-hand side before rows *and* columns are zeroed (SPD preserved);
    with ``symmetric=False`` only rows are replaced.

    ``rows`` plans a row block instead (a distributed rank's owned
    rows): ``matrix`` is ``(len(rows), n)``, its row ``i`` global row
    ``rows[i]``, and every entry and RHS value comes out as in the
    square plan's row.  The pattern is read as given, never sorted.
    """

    def __init__(
        self,
        matrix: sp.csr_matrix,
        dofs: np.ndarray,
        symmetric: bool = True,
        rows: np.ndarray | None = None,
    ):
        if not sp.issparse(matrix):
            raise AssemblyError(f"expected a sparse matrix, got {type(matrix).__name__}")
        csr = matrix.tocsr()
        m, n = csr.shape
        if rows is None:
            if m != n:
                raise AssemblyError(f"matrix must be square, got {csr.shape}")
            rows = np.arange(n, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape != (m,) or (m and (rows.min() < 0 or rows.max() >= n)):
            raise AssemblyError(f"rows must name the matrix's {m} rows within [0, {n})")
        dofs = np.asarray(dofs, dtype=np.int64)
        if dofs.size and (dofs.min() < 0 or dofs.max() >= n):
            raise AssemblyError("Dirichlet dof index out of range")
        if np.unique(dofs).size != dofs.size:
            raise AssemblyError("duplicate Dirichlet dofs")
        self.shape = csr.shape
        self.dofs = dofs
        self.symmetric = symmetric
        self._indptr = csr.indptr.copy()
        self._indices = csr.indices.copy()

        slot = np.full(n, -1, dtype=np.int64)  # dof -> its index in ``dofs``
        slot[dofs] = np.arange(dofs.size)
        row_slot = slot[rows]
        row_ids = np.repeat(np.arange(m, dtype=np.int64), np.diff(csr.indptr))
        pinned = (row_slot >= 0)[row_ids]  # entries of constrained rows
        zero_mask = pinned | (slot[csr.indices] >= 0) if symmetric else pinned
        diag_mask = pinned & (rows[row_ids] == csr.indices)
        # The RHS entries the boundary values go to, and which value each.
        self._rhs_rows = np.flatnonzero(row_slot >= 0)
        self._rhs_values = row_slot[self._rhs_rows]
        if int(diag_mask.sum()) != self._rhs_rows.size:
            raise AssemblyError(
                "every constrained dof needs exactly one structural diagonal "
                "entry (the pattern is missing some or repeats one)"
            )
        self._zero_positions = np.nonzero(zero_mask)[0]
        self._diag_positions = np.nonzero(diag_mask)[0]
        # Identity of the last index array that passed the comparison:
        # time loops re-apply the plan to the same cached pattern, so
        # revalidation is a pointer check, not an O(nnz) compare.
        self._validated_indices = None

    def _check_pattern(self, matrix: sp.csr_matrix) -> sp.csr_matrix:
        if not (sp.issparse(matrix) and matrix.format == "csr"):
            kind = matrix.format if sp.issparse(matrix) else type(matrix).__name__
            raise AssemblyError(f"the plan edits a CSR matrix in place, got {kind}")
        if matrix.shape != self.shape or matrix.nnz != self._indices.size:
            raise AssemblyError("matrix does not match the planned pattern")
        if matrix.indices is self._validated_indices:
            return matrix
        if matrix.indices is not self._indices and not (
            np.array_equal(matrix.indptr, self._indptr)
            and np.array_equal(matrix.indices, self._indices)
        ):
            raise AssemblyError("matrix sparsity pattern changed since planning")
        self._validated_indices = matrix.indices
        return matrix

    def lift(self, matrix: sp.csr_matrix, values: np.ndarray | float) -> np.ndarray:
        """RHS correction ``-A @ g`` (call *before* :meth:`constrain_matrix`)."""
        g = np.zeros(self.shape[1])
        g[self.dofs] = self._values(values)
        return -(matrix @ g)

    def constrain_matrix(self, matrix: sp.csr_matrix) -> sp.csr_matrix:
        """Zero the planned rows/columns and unit the constrained diagonal.

        In place on ``matrix.data``; returns ``matrix``.
        """
        csr = self._check_pattern(matrix)
        csr.data[self._zero_positions] = 0.0
        csr.data[self._diag_positions] = 1.0
        return csr

    def set_rhs(self, rhs: np.ndarray, values: np.ndarray | float) -> np.ndarray:
        """Write the boundary values into the RHS (in place; returns it)."""
        rhs[self._rhs_rows] = self._values(values)[self._rhs_values]
        return rhs

    def _values(self, values: np.ndarray | float) -> np.ndarray:
        """One value per planned dof (a scalar is broadcast)."""
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 0:
            vals = np.full(self.dofs.shape, float(vals))
        if vals.shape != self.dofs.shape:
            raise AssemblyError(
                f"values shape {vals.shape} != dofs shape {self.dofs.shape}"
            )
        return vals

    def apply(
        self,
        matrix: sp.csr_matrix,
        rhs: np.ndarray,
        values: np.ndarray | float,
    ) -> tuple[sp.csr_matrix, np.ndarray]:
        """Impose ``u[dofs] = values``, editing ``matrix.data`` in place.

        Equivalent to :func:`apply_dirichlet` on the planned pattern (or
        to the planned rows of it), at a fraction of the cost.  The RHS
        is returned as a new array.
        """
        self._check_pattern(matrix)
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != self.shape[:1]:
            raise AssemblyError(f"rhs shape {rhs.shape} != ({self.shape[0]},)")
        new_rhs = rhs + self.lift(matrix, values) if self.symmetric else rhs.copy()
        self.constrain_matrix(matrix)
        self.set_rhs(new_rhs, values)
        return matrix, new_rhs


def pin_dof(matrix: sp.csr_matrix, rhs: np.ndarray, dof: int, value: float = 0.0):
    """Pin a single DOF — used to fix the pressure nullspace in NS.

    Pure-Neumann pressure Poisson problems are singular (constants are in
    the nullspace); pinning one DOF selects a representative.
    """
    return apply_dirichlet(matrix, rhs, np.array([dof]), np.array([value]), symmetric=True)
