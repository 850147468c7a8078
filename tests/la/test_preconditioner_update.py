"""Tests for the preconditioner ``update(matrix)`` refresh protocol.

A refreshed preconditioner must be numerically identical to one built
from scratch on the new matrix (same sparsity pattern), and must refuse
— with a clear error — a matrix whose pattern changed.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import SolverError
from repro.fem.assembly import assemble_mass, assemble_stiffness
from repro.fem.dofmap import DofMap
from repro.fem.mesh import StructuredBoxMesh
from repro.la.preconditioners import (
    BlockJacobiPreconditioner,
    ILU0Preconditioner,
    JacobiPreconditioner,
    SSORPreconditioner,
    make_preconditioner,
)


@pytest.fixture(scope="module")
def matrices():
    """Two SPD matrices sharing one sparsity pattern (t=1 and t=2 ops)."""
    dm = DofMap(StructuredBoxMesh((4, 4, 4)), 1)
    mass = assemble_mass(dm).tocsr()
    stiffness = assemble_stiffness(dm).tocsr()
    first = (mass + stiffness).tocsr()
    second = (2.5 * mass + 0.5 * stiffness).tocsr()
    return first, second


@pytest.fixture(scope="module")
def vector(matrices):
    rng = np.random.default_rng(7)
    return rng.standard_normal(matrices[0].shape[0])


def _block_jacobi(matrix):
    blocks = np.array_split(np.arange(matrix.shape[0]), 4)
    return BlockJacobiPreconditioner(matrix, blocks)


FACTORIES = {
    "jacobi": JacobiPreconditioner,
    "ssor": SSORPreconditioner,
    "ilu0": ILU0Preconditioner,
    "block-jacobi": _block_jacobi,
}


class TestUpdateMatchesRebuild:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_refreshed_apply_matches_fresh_build(self, name, matrices, vector):
        first, second = matrices
        refreshed = FACTORIES[name](first)
        assert refreshed.update(second) is refreshed
        fresh = FACTORIES[name](second)
        np.testing.assert_array_equal(
            refreshed.apply(vector), fresh.apply(vector)
        )

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_update_back_and_forth_is_involutive(self, name, matrices, vector):
        """Refreshing to the second matrix and back reproduces the
        original application exactly — no state leaks between updates."""
        first, second = matrices
        precond = FACTORIES[name](first)
        baseline = precond.apply(vector)
        precond.update(second)
        precond.update(first)
        np.testing.assert_array_equal(precond.apply(vector), baseline)


def _stored_zero_pair():
    """Two 4x4 tridiagonal matrices on one pattern; the first holds stored
    zeros (a Dirichlet-style row) where the second does not."""
    indptr = np.array([0, 2, 5, 8, 10])
    indices = np.array([0, 1, 0, 1, 2, 1, 2, 3, 2, 3])
    first = np.array([1.0, 0.0, 0.0, 4.0, -1.0, -1.0, 4.0, 0.0, 0.0, 1.0])
    second = np.array([4.0, -1.0, -1.0, 4.0, -1.0, -1.0, 4.0, -1.0, -1.0, 4.0])
    return tuple(
        sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(4, 4))
        for data in (first, second)
    )


def _two_blocks(matrix):
    return BlockJacobiPreconditioner(matrix, [np.arange(0, 2), np.arange(2, 4)])


@pytest.mark.parametrize(
    "factory", [ILU0Preconditioner, SSORPreconditioner, _two_blocks],
    ids=["ilu0", "ssor", "block-jacobi"],
)
def test_update_from_stored_zeros_is_a_fresh_build(factory):
    """ILU(0) and SSOR used to refill split triangles through bare
    ``searchsorted`` positions, and building those triangles had pruned
    the stored zeros: an entry that was zero at construction aliased its
    neighbour (often the diagonal) in every later ``update()``."""
    first, second = _stored_zero_pair()
    assert (first.data == 0.0).any() and first.nnz == second.nnz
    v = np.array([1.0, 2.0, 3.0, 4.0])
    refreshed = factory(first).update(second)
    np.testing.assert_array_equal(refreshed.apply(v), factory(second).apply(v))
    # ... and back: nothing of the second matrix survives either.
    np.testing.assert_array_equal(refreshed.update(first).apply(v), factory(first).apply(v))


def _unsorted(matrix):
    """A copy of ``matrix`` storing each row's entries in descending column order."""
    csr = matrix.tocsr(copy=True)
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    order = np.lexsort((-csr.indices, rows))
    csr.indices, csr.data = csr.indices[order], csr.data[order]
    csr.has_sorted_indices = False
    return csr


class TestPatternGuard:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_unsorted_indices_are_the_same_pattern(self, name, matrices, vector):
        """Jacobi remembered the unsorted pattern and compared it with the
        sorted candidate, so updating from its own input raised."""
        first, second = matrices
        scrambled = _unsorted(first)
        assert not scrambled.has_sorted_indices and (scrambled != first).nnz == 0
        precond = FACTORIES[name](scrambled)
        precond.update(scrambled)
        precond.update(_unsorted(second))
        np.testing.assert_array_equal(
            precond.apply(vector), FACTORIES[name](second).apply(vector)
        )
        assert not scrambled.has_sorted_indices  # the caller's matrix is left as it was

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_pattern_change_raises(self, name, matrices):
        first, _ = matrices
        precond = FACTORIES[name](first)
        denser = (first + sp.eye(first.shape[0], k=3, format="csr") * 0.01).tocsr()
        with pytest.raises(SolverError, match="pattern"):
            precond.update(denser)

    def test_shape_change_raises(self, matrices):
        first, _ = matrices
        precond = JacobiPreconditioner(first)
        smaller = first[:10, :10].tocsr()
        with pytest.raises(SolverError):
            precond.update(smaller)


class TestSolverIntegration:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_cg_iterations_match_after_update(self, name, matrices):
        """CG preconditioned by an updated object behaves exactly like
        CG preconditioned by a from-scratch one."""
        from repro.la.krylov import cg

        first, second = matrices
        b = np.ones(first.shape[0])
        refreshed = FACTORIES[name](first)
        refreshed.update(second)
        fresh = FACTORIES[name](second)
        res_refreshed = cg(second, b, preconditioner=refreshed, tol=1e-10)
        res_fresh = cg(second, b, preconditioner=fresh, tol=1e-10)
        assert res_refreshed.iterations == res_fresh.iterations
        np.testing.assert_array_equal(res_refreshed.x, res_fresh.x)

    def test_make_preconditioner_products_are_updatable(self, matrices):
        first, second = matrices
        for name in ("jacobi", "ssor", "ilu0"):
            precond = make_preconditioner(name, first)
            assert hasattr(precond, "update")
            precond.update(second)
