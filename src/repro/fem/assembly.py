"""Vectorized finite element assembly on structured hex meshes.

This module is the computational kernel the paper calls *step (ii)*: the
construction of mass, stiffness and advection matrices and load vectors.
All loops over cells are vectorized with NumPy einsums (see the
scientific-python optimization guidance: vectorize, broadcast, avoid
copies).

Both uniform and *graded* tensor-product meshes are supported: every
cell is an axis-aligned box, so the Jacobian is the diagonal
``diag(hx_e, hy_e, hz_e)`` and gradient contractions decompose per
direction with no cross terms — stiffness is assembled as three
per-direction reference matrices scaled by ``vol_e / h_{e,d}^2``.

Matrices are returned in CSR format (scipy.sparse), the same storage the
paper's Trilinos backend uses.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.errors import AssemblyError
from repro.fem.dofmap import DofMap
from repro.fem.quadrature import QuadratureRule, default_rule_for_order
from repro.obs.core import current as _obs_current

Coefficient = Callable[[np.ndarray], np.ndarray] | float | None


def _traced_assembly(form: str):
    """Wrap an assembly kernel in an ambient observability span.

    When no observability view is active on the thread the wrapper costs
    one boolean test; under an active rank view each call produces an
    ``assemble`` span (child of whatever phase is open) and bumps the
    per-form assembly counter.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            obs = _obs_current()
            if not obs.enabled:
                return fn(*args, **kwargs)
            with obs.span("assemble", form=form):
                out = fn(*args, **kwargs)
            obs.count("assemblies_total", form=form)
            return out

        return wrapper

    return decorate


def _rule_for(dofmap: DofMap, rule: QuadratureRule | None) -> QuadratureRule:
    return rule if rule is not None else default_rule_for_order(dofmap.order)


def quad_points_physical(dofmap: DofMap, rule: QuadratureRule | None = None) -> np.ndarray:
    """Physical coordinates of quadrature points, shape ``(nc, nq, 3)``."""
    rule = _rule_for(dofmap, rule)
    mesh = dofmap.mesh
    origins = mesh.cell_origin(np.arange(mesh.num_cells))
    return origins[:, None, :] + rule.points[None, :, :] * mesh.cell_spacings[:, None, :]


def evaluate_at_quad(
    dofmap: DofMap, values: np.ndarray, rule: QuadratureRule | None = None
) -> np.ndarray:
    """Evaluate an FE coefficient vector at quadrature points.

    ``values`` may be ``(num_dofs,)`` for a scalar field (returns
    ``(nc, nq)``) or ``(num_dofs, m)`` for an ``m``-component field
    (returns ``(nc, nq, m)``).
    """
    rule = _rule_for(dofmap, rule)
    basis = dofmap.element.tabulate(rule.points)  # (nb, nq)
    vals = np.asarray(values, dtype=float)
    if vals.ndim not in (1, 2) or vals.shape[0] != dofmap.num_dofs:
        raise AssemblyError(f"coefficient vector has unsupported shape {vals.shape}")
    local = vals[dofmap.cell_dofs]  # (nc, nb) or (nc, nb, m)
    if local.ndim == 2:
        return np.einsum("ea,aq->eq", local, basis)
    return np.einsum("eam,aq->eqm", local, basis)


def evaluate_gradient_at_quad(
    dofmap: DofMap, values: np.ndarray, rule: QuadratureRule | None = None
) -> np.ndarray:
    """Physical gradient of a scalar FE field at quad points, ``(nc, nq, 3)``."""
    rule = _rule_for(dofmap, rule)
    grads = dofmap.element.tabulate_gradients(rule.points)  # (nb, nq, 3)
    inv_h = 1.0 / dofmap.mesh.cell_spacings  # (nc, 3)
    local = np.asarray(values, dtype=float)[dofmap.cell_dofs]  # (nc, nb)
    return np.einsum("ea,aqd,ed->eqd", local, grads, inv_h)


def _coefficient_at_quad(
    dofmap: DofMap, rule: QuadratureRule, coefficient: Coefficient
) -> np.ndarray | float:
    """Resolve a coefficient spec to per-quad-point values or a scalar."""
    if coefficient is None:
        return 1.0
    if callable(coefficient):
        pts = quad_points_physical(dofmap, rule)
        vals = np.asarray(coefficient(pts.reshape(-1, 3)), dtype=float)
        return vals.reshape(pts.shape[0], pts.shape[1])
    return float(coefficient)


def _scatter(dofmap: DofMap, local: np.ndarray) -> sp.csr_matrix:
    """Scatter per-cell local matrices ``(nc, nb, nb)`` into global CSR.

    The COO index pattern is cached on the dofmap
    (:attr:`~repro.fem.dofmap.DofMap.scatter_indices`) since repeated
    per-time-step assembly reuses it unchanged.
    """
    nc, nb = dofmap.cell_dofs.shape
    if local.shape != (nc, nb, nb):
        raise AssemblyError(f"local matrices shape {local.shape} != {(nc, nb, nb)}")
    rows, cols = dofmap.scatter_indices
    mat = sp.coo_matrix(
        (np.ascontiguousarray(local).ravel(), (rows, cols)),
        shape=(dofmap.num_dofs, dofmap.num_dofs),
    )
    out = mat.tocsr()
    out.sum_duplicates()
    return out


@_traced_assembly("mass")
def assemble_mass(
    dofmap: DofMap,
    coefficient: Coefficient = None,
) -> sp.csr_matrix:
    """Assemble the mass matrix ``M_ab = ∫ c φ_a φ_b``.

    ``coefficient`` may be None (1), a scalar, or a callable evaluated at
    physical quadrature points.
    """
    rule = default_rule_for_order(dofmap.order)
    basis = dofmap.element.tabulate(rule.points)  # (nb, nq)
    volumes = dofmap.mesh.cell_volumes  # (nc,)
    c = _coefficient_at_quad(dofmap, rule, coefficient)
    if np.isscalar(c):
        ref = float(c) * np.einsum("q,aq,bq->ab", rule.weights, basis, basis)
        local = volumes[:, None, None] * ref[None, :, :]
        return _scatter(dofmap, local)
    local = np.einsum("q,eq,aq,bq->eab", rule.weights, c, basis, basis)
    local *= volumes[:, None, None]
    return _scatter(dofmap, local)


@_traced_assembly("stiffness")
def assemble_stiffness(
    dofmap: DofMap,
    coefficient: Coefficient = None,
) -> sp.csr_matrix:
    """Assemble the stiffness matrix ``K_ab = ∫ c ∇φ_a · ∇φ_b``.

    Axis-aligned cells make the Jacobian diagonal, so the contraction
    splits into three per-direction terms scaled by ``vol_e / h_{e,d}^2``.
    """
    rule = default_rule_for_order(dofmap.order)
    grads = dofmap.element.tabulate_gradients(rule.points)  # (nb, nq, 3)
    mesh = dofmap.mesh
    scale = mesh.cell_volumes[:, None] / mesh.cell_spacings**2  # (nc, 3)
    c = _coefficient_at_quad(dofmap, rule, coefficient)

    nb = grads.shape[0]
    nc = mesh.num_cells
    local = np.zeros((nc, nb, nb))
    for d in range(3):
        gd = grads[:, :, d]  # (nb, nq)
        if np.isscalar(c):
            ref_d = float(c) * np.einsum("q,aq,bq->ab", rule.weights, gd, gd)
            local += scale[:, d, None, None] * ref_d[None, :, :]
        else:
            part = np.einsum("q,eq,aq,bq->eab", rule.weights, c, gd, gd)
            part *= scale[:, d, None, None]
            local += part
    return _scatter(dofmap, local)


@_traced_assembly("advection")
def assemble_advection(
    dofmap: DofMap,
    velocity: Callable[[np.ndarray], np.ndarray] | np.ndarray,
    rule: QuadratureRule | None = None,
) -> sp.csr_matrix:
    """Assemble the advection matrix ``A_ab = ∫ (β · ∇φ_b) φ_a``.

    ``velocity`` is either a callable mapping points ``(n, 3) -> (n, 3)``,
    a constant 3-vector, or precomputed per-quad values ``(nc, nq, 3)``
    (the form used by the Navier–Stokes solver, which advects with the
    extrapolated velocity of the previous steps).
    """
    rule = _rule_for(dofmap, rule)
    basis = dofmap.element.tabulate(rule.points)  # (nb, nq)
    grads = dofmap.element.tabulate_gradients(rule.points)  # (nb, nq, 3)
    mesh = dofmap.mesh
    nc, nq = mesh.num_cells, rule.num_points

    if callable(velocity):
        pts = quad_points_physical(dofmap, rule)
        beta = np.asarray(velocity(pts.reshape(-1, 3)), dtype=float).reshape(nc, nq, 3)
    else:
        beta = np.asarray(velocity, dtype=float)
        if beta.shape == (3,):
            beta = np.broadcast_to(beta, (nc, nq, 3))
        elif beta.shape != (nc, nq, 3):
            raise AssemblyError(
                f"velocity shape {beta.shape} is neither (3,) nor {(nc, nq, 3)}"
            )

    scale = mesh.cell_volumes[:, None] / mesh.cell_spacings  # (nc, 3)
    nb = basis.shape[0]
    local = np.zeros((nc, nb, nb))
    for d in range(3):
        beta_d = beta[:, :, d] * scale[:, d, None]  # (nc, nq)
        part = np.einsum("q,eq,bq,aq->eab", rule.weights, beta_d, grads[:, :, d], basis)
        local += part
    return _scatter(dofmap, local)


@_traced_assembly("load")
def assemble_load(
    dofmap: DofMap,
    source: Callable[[np.ndarray], np.ndarray] | float,
) -> np.ndarray:
    """Assemble the load vector ``F_a = ∫ f φ_a``."""
    rule = default_rule_for_order(dofmap.order)
    basis = dofmap.element.tabulate(rule.points)
    mesh = dofmap.mesh
    nc, nq = mesh.num_cells, rule.num_points
    if callable(source):
        pts = quad_points_physical(dofmap, rule)
        f = np.asarray(source(pts.reshape(-1, 3)), dtype=float).reshape(nc, nq)
    else:
        f = np.full((nc, nq), float(source))
    local = np.einsum("q,eq,aq->ea", rule.weights, f, basis)
    local *= mesh.cell_volumes[:, None]
    out = np.zeros(dofmap.num_dofs)
    np.add.at(out, dofmap.cell_dofs.ravel(), local.ravel())
    return out


def _csr_entry_keys(matrix: sp.csr_matrix) -> np.ndarray:
    """Row-major (row, col) keys of a canonical CSR matrix, sorted."""
    n_rows, n_cols = matrix.shape
    row_ids = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(matrix.indptr))
    return row_ids * np.int64(n_cols) + matrix.indices.astype(np.int64)


def _canonical_csr(matrix) -> sp.csr_matrix:
    """CSR with summed duplicates and sorted indices (stable entry keys);
    copied only if ``matrix`` was not in that form already."""
    csr = matrix.tocsr()
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    return csr


class CompositeOperator:
    """Pattern-cached linear combination of CSR operators.

    The time loops build ``a(t) M + b(t) K`` every step; done naively
    (scipy ``__add__``) each step pays a full sparsity-pattern union and
    allocation.  This class merges the patterns *once* and stores, per
    component, the positions of its entries inside the merged ``data``
    array, so each step is a handful of vectorized axpys on ``data``
    with no index arithmetic at all.

    The floating-point result is bit-identical to the scipy expression:
    per merged entry the same products are summed in component order.

    ``combine`` returns a CSR matrix sharing the cached ``indptr`` /
    ``indices``; pass ``out=`` (a matrix previously returned by
    :meth:`combine`) to also reuse its ``data`` buffer in place.
    ``combine`` writes to that matrix only, so threads may combine
    through one operator concurrently, each into its own ``out``;
    :meth:`update_component` is for an operator nobody else holds.
    """

    def __init__(self, components: dict[str, sp.csr_matrix]):
        if not components:
            raise AssemblyError("CompositeOperator needs at least one component")
        canonical = {name: _canonical_csr(m) for name, m in components.items()}
        shapes = {m.shape for m in canonical.values()}
        if len(shapes) != 1:
            raise AssemblyError(f"component shapes differ: {sorted(shapes)}")
        self.shape = shapes.pop()
        self._component_data = {name: m.data.copy() for name, m in canonical.items()}
        # Position maps into the merged data array; None marks a
        # component whose pattern IS the merged pattern, where a plain
        # vectorized axpy beats the gather/scatter by a wide margin.
        self._component_positions: dict[str, np.ndarray | None] = dict.fromkeys(canonical)

        first, *others = canonical.values()
        if all(
            np.array_equal(m.indptr, first.indptr) and np.array_equal(m.indices, first.indices)
            for m in others
        ):
            # The common case (same-mesh operators): the pattern is
            # every component's, with no union to compute.
            self._indptr, self._indices = first.indptr, first.indices
            self._nnz = first.nnz
            return

        pattern = None
        for m in canonical.values():
            ones = sp.csr_matrix(
                (np.ones_like(m.data), m.indices.copy(), m.indptr.copy()),
                shape=m.shape,
            )
            pattern = ones if pattern is None else pattern + ones
        pattern.sort_indices()
        self._indptr = pattern.indptr
        self._indices = pattern.indices
        self._nnz = pattern.nnz

        merged_keys = _csr_entry_keys(pattern)
        identity = np.arange(self._nnz, dtype=np.int64)
        for name, m in canonical.items():
            positions = np.searchsorted(merged_keys, _csr_entry_keys(m))
            if not np.array_equal(positions, identity):
                self._component_positions[name] = positions

    @property
    def nnz(self) -> int:
        """Entries in the merged pattern."""
        return self._nnz

    def rows(self, rows: np.ndarray) -> "CompositeOperator":
        """The operator cut down to ``rows`` (global row indices, in the
        order given; columns stay global).

        A slice, not a rebuild: every kept entry is summed from the same
        products in the same order, so ``rows(r).combine(c)`` equals
        ``combine(c)[r]`` bit for bit.
        """
        rows = np.asarray(rows, dtype=np.int64)
        starts = self._indptr[rows]
        lengths = self._indptr[rows + 1] - starts
        indptr = np.zeros(rows.size + 1, dtype=self._indptr.dtype)
        np.cumsum(lengths, out=indptr[1:])
        # The merged data positions of the kept entries, row by row.
        take = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)

        cut = object.__new__(CompositeOperator)
        cut.shape = (rows.size, self.shape[1])
        cut._indptr, cut._indices, cut._nnz = indptr, self._indices[take], take.size
        cut._component_data, cut._component_positions = {}, {}
        renumber = np.full(self._nnz, -1, dtype=np.int64)
        renumber[take] = np.arange(take.size)
        for name, data in self._component_data.items():
            positions = self._component_positions[name]
            if positions is None:
                cut._component_data[name] = data[take]
                cut._component_positions[name] = None
            else:
                kept = np.flatnonzero(renumber[positions] >= 0)
                cut._component_data[name] = data[kept]
                cut._component_positions[name] = renumber[positions[kept]]
        return cut

    def update_component(self, name: str, matrix: sp.csr_matrix) -> None:
        """Replace one component's values (pattern must be unchanged).

        The per-step path for operators with a time-dependent part (the
        NS advection matrix): reassemble that component, swap its values
        in, combine.
        """
        if name not in self._component_data:
            raise AssemblyError(f"unknown component {name!r}")
        csr = _canonical_csr(matrix)
        if csr.shape != self.shape or csr.nnz != self._component_data[name].size:
            raise AssemblyError(
                f"component {name!r} changed sparsity pattern; rebuild the "
                f"CompositeOperator"
            )
        self._component_data[name] = csr.data.copy()

    def combine(
        self, coefficients: dict[str, float], out: sp.csr_matrix | None = None
    ) -> sp.csr_matrix:
        """Return ``sum(coefficients[name] * component[name])`` as CSR.

        Unknown names raise; omitted components contribute nothing.
        With ``out`` (a matrix from a previous ``combine``) the data
        buffer is reused in place and ``out`` itself is returned.
        """
        unknown = set(coefficients) - set(self._component_data)
        if unknown:
            raise AssemblyError(f"unknown components {sorted(unknown)}")
        if out is None:
            data = np.empty(self._nnz)
            out = sp.csr_matrix(
                (data, self._indices, self._indptr), shape=self.shape
            )
            # The constructor may recast the index arrays; force the
            # cached ones back in so every combine() result shares them
            # (that identity is also the cheap out= validity check).
            out.indices = self._indices
            out.indptr = self._indptr
            out.has_sorted_indices = True
        else:
            if out.data.shape != (self._nnz,) or out.indices is not self._indices:
                raise AssemblyError(
                    "out must be a matrix previously returned by combine()"
                )
            data = out.data
        # Accumulate in dict order; `filled` tracks whether every entry
        # has been written (the first full-coverage component overwrites
        # instead of zero-fill + add, same bit pattern since 0 + x == x).
        filled = False
        for name, coeff in coefficients.items():
            positions = self._component_positions[name]
            component = self._component_data[name]
            if positions is None:
                if not filled:
                    np.multiply(component, coeff, out=data)
                else:
                    data += coeff * component
            else:
                if not filled:
                    data[:] = 0.0
                data[positions] += coeff * component
            filled = True
        if not filled:
            data[:] = 0.0
        return out
