"""Tests for algebraic preconditioners."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.fem.assembly import assemble_mass, assemble_stiffness
from repro.fem.boundary import constrain_operator
from repro.fem.dofmap import DofMap
from repro.fem.mesh import StructuredBoxMesh
from repro.la.krylov import cg
from repro.la.preconditioners import (
    BlockJacobiPreconditioner,
    ILU0Preconditioner,
    IdentityPreconditioner,
    JacobiPreconditioner,
    SSORPreconditioner,
    make_preconditioner,
)


def laplacian_1d(n):
    return sp.diags(
        [2.0 * np.ones(n), -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1]
    ).tocsr()


@pytest.fixture(scope="module")
def fem_operator():
    # Stiffness-dominated operator on a stretched box: badly enough
    # conditioned that preconditioning visibly pays off.
    dm = DofMap(StructuredBoxMesh((8, 8, 8), upper=(1.0, 1.0, 8.0)), 1)
    a = assemble_stiffness(dm) + 1e-3 * assemble_mass(dm)
    return a.tocsr()


class TestIdentity:
    def test_identity_apply(self):
        p = IdentityPreconditioner()
        v = np.arange(5.0)
        assert np.array_equal(p.apply(v), v)
        assert p.setup_flops == 0


class TestJacobi:
    def test_apply_is_diagonal_scaling(self):
        a = sp.diags([2.0, 4.0, 8.0]).tocsr()
        p = JacobiPreconditioner(a)
        assert np.allclose(p.apply(np.ones(3)), [0.5, 0.25, 0.125])

    def test_zero_diagonal_rejected(self):
        a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(SolverError):
            JacobiPreconditioner(a)

    def test_nonsquare_rejected(self):
        with pytest.raises(SolverError):
            JacobiPreconditioner(sp.csr_matrix(np.ones((2, 3))))

    def test_dense_rejected(self):
        with pytest.raises(SolverError):
            JacobiPreconditioner(np.eye(3))


class TestSSOR:
    def test_exact_for_diagonal_matrix(self):
        a = sp.diags([2.0, 5.0]).tocsr()
        p = SSORPreconditioner(a)
        # For diagonal A and omega=1, M = D: apply = D^{-1}.
        assert np.allclose(p.apply(np.array([2.0, 5.0])), [1.0, 1.0])

    def test_symmetric_application(self, fem_operator):
        """M^{-1} must be symmetric: v^T M^{-1} w == w^T M^{-1} v."""
        p = SSORPreconditioner(fem_operator)
        rng = np.random.default_rng(0)
        v, w = rng.standard_normal((2, fem_operator.shape[0]))
        assert v @ p.apply(w) == pytest.approx(w @ p.apply(v), rel=1e-10)

    def test_accelerates_cg(self, fem_operator):
        b = np.ones(fem_operator.shape[0])
        plain = cg(fem_operator, b, tol=1e-10, maxiter=2000)
        pre = cg(fem_operator, b, preconditioner=SSORPreconditioner(fem_operator), tol=1e-10, maxiter=2000)
        assert pre.converged
        assert pre.iterations < plain.iterations

    @pytest.mark.parametrize("omega", [0.0, 2.0, -1.0, 2.5])
    def test_invalid_omega(self, omega):
        with pytest.raises(SolverError):
            SSORPreconditioner(laplacian_1d(5), omega=omega)

    def test_zero_diag_rejected(self):
        a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolverError):
            SSORPreconditioner(a)


class TestILU0:
    def test_exact_for_tridiagonal(self):
        """Tridiagonal matrices have no fill, so ILU(0) = exact LU."""
        a = laplacian_1d(20)
        p = ILU0Preconditioner(a)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(20)
        assert np.allclose(a @ p.apply(b), b, atol=1e-10)

    def test_approximate_inverse_quality(self, fem_operator):
        """||A M^{-1} v - v|| should be well below ||v|| for FEM operators."""
        p = ILU0Preconditioner(fem_operator)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(fem_operator.shape[0])
        residual = np.linalg.norm(fem_operator @ p.apply(v) - v)
        assert residual < 0.5 * np.linalg.norm(v)

    def test_accelerates_cg_dramatically(self, fem_operator):
        b = np.ones(fem_operator.shape[0])
        plain = cg(fem_operator, b, tol=1e-10, maxiter=2000)
        pre = cg(fem_operator, b, preconditioner=ILU0Preconditioner(fem_operator), tol=1e-10, maxiter=2000)
        assert pre.converged
        assert pre.iterations < 0.75 * plain.iterations

    def test_structural_zero_diagonal_rejected(self):
        a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        a.eliminate_zeros()
        with pytest.raises(SolverError):
            ILU0Preconditioner(a)

    def test_no_stored_entries_is_a_structural_zero_diagonal(self):
        with pytest.raises(SolverError, match="structurally zero diagonal"):
            ILU0Preconditioner(sp.csr_matrix([[0.0]]))

    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_sizes_build_and_apply(self, n):
        p = ILU0Preconditioner(sp.csr_matrix(2.0 * np.eye(n)))
        assert np.array_equal(p.apply(np.ones(n)), 0.5 * np.ones(n))
        assert p.setup_flops == 0

    def test_late_zero_pivot_is_a_solver_error(self):
        """u_11 = 1 - 1*1 = 0 sits in the last row, which no step divides by."""
        singular = sp.csr_matrix(np.ones((2, 2)))
        with pytest.raises(SolverError, match="zero pivot"):
            ILU0Preconditioner(singular)
        p = ILU0Preconditioner(sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 2.0]])))
        with pytest.raises(SolverError, match="zero pivot"):
            p.update(singular)

    def test_counts_flops(self, fem_operator):
        p = ILU0Preconditioner(fem_operator)
        assert p.setup_flops > 0
        assert p.apply_flops > 0

    def test_setup_costs_more_than_jacobi(self, fem_operator):
        """The trade behind the iteration counts: the stronger
        preconditioner pays for them in setup flops."""
        ilu0 = ILU0Preconditioner(fem_operator)
        assert ilu0.setup_flops > JacobiPreconditioner(fem_operator).setup_flops

    @given(seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_factorization_matches_pattern(self, seed):
        """On random diagonally-dominant systems, ILU0-CG still converges."""
        rng = np.random.default_rng(seed)
        n = 25
        a = sp.random(n, n, density=0.2, random_state=rng)
        a = (a @ a.T + sp.eye(n) * n).tocsr()
        p = ILU0Preconditioner(a)
        res = cg(a, np.ones(n), preconditioner=p, tol=1e-10, maxiter=100)
        assert res.converged


class TestBlockJacobi:
    def test_single_block_equals_local_solver(self, fem_operator):
        n = fem_operator.shape[0]
        p_block = BlockJacobiPreconditioner(fem_operator, [np.arange(n)])
        p_ilu = ILU0Preconditioner(fem_operator)
        v = np.ones(n)
        assert np.allclose(p_block.apply(v), p_ilu.apply(v))

    def test_blocks_must_partition(self, fem_operator):
        n = fem_operator.shape[0]
        with pytest.raises(SolverError):
            BlockJacobiPreconditioner(fem_operator, [np.arange(n - 1)])
        with pytest.raises(SolverError):
            BlockJacobiPreconditioner(fem_operator, [np.arange(n), np.array([0])])

    def test_more_blocks_weaker_but_cheaper(self, fem_operator):
        """Iterations grow with block count; the classic Schwarz trade-off."""
        n = fem_operator.shape[0]
        b = np.ones(n)
        halves = np.array_split(np.arange(n), 2)
        sixteenths = np.array_split(np.arange(n), 16)
        p2 = BlockJacobiPreconditioner(fem_operator, halves)
        p16 = BlockJacobiPreconditioner(fem_operator, sixteenths)
        r2 = cg(fem_operator, b, preconditioner=p2, tol=1e-10, maxiter=2000)
        r16 = cg(fem_operator, b, preconditioner=p16, tol=1e-10, maxiter=2000)
        assert r2.converged and r16.converged
        assert r2.iterations <= r16.iterations

    def test_symmetric_for_spd_input(self, fem_operator):
        n = fem_operator.shape[0]
        p = BlockJacobiPreconditioner(fem_operator, np.array_split(np.arange(n), 3))
        rng = np.random.default_rng(3)
        v, w = rng.standard_normal((2, n))
        assert v @ p.apply(w) == pytest.approx(w @ p.apply(v), rel=1e-9)


SIX_BY_SIX = {
    "identity": IdentityPreconditioner,
    "jacobi": JacobiPreconditioner,
    "ssor": SSORPreconditioner,
    "ilu0": ILU0Preconditioner,
    "block_jacobi": lambda a: BlockJacobiPreconditioner(a, np.array_split(np.arange(6), 2)),
}


@pytest.mark.parametrize("kind", sorted(SIX_BY_SIX))
class TestApplyShapeContract:
    """``(n,)`` and ``(n, m)`` come back in their shape; anything else is
    a :class:`SolverError`.  (Jacobi and SSOR used to broadcast ``(n, 1)``
    to ``(n, n)``; a wrong length was a bare ``ValueError``, an
    ``IndexError`` or, through the identity, no error at all.)"""

    def test_vectors_and_blocks_keep_their_shape(self, kind):
        precond = SIX_BY_SIX[kind](laplacian_1d(6))
        v = np.arange(1.0, 7.0)
        block = np.column_stack([v, -2.0 * v, v**2])
        assert precond.apply(v).shape == (6,)
        for m in (1, 3):
            got = precond.apply(block[:, :m])
            assert got.shape == (6, m)
            for j in range(m):
                np.testing.assert_array_equal(got[:, j], precond.apply(block[:, j].copy()))

    @pytest.mark.parametrize("shape", [(5,), (7,), (), (5, 1), (6, 1, 1)])
    def test_any_other_shape_is_a_solver_error(self, kind, shape):
        precond = SIX_BY_SIX[kind](laplacian_1d(6))
        with pytest.raises(SolverError, match=r"expected 6 rows, got shape"):
            precond.apply(np.ones(shape))


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("none", IdentityPreconditioner),
        ("jacobi", JacobiPreconditioner),
        ("ssor", SSORPreconditioner),
        ("ilu0", ILU0Preconditioner),
    ])
    def test_known_names(self, name, cls):
        a = laplacian_1d(10)
        assert isinstance(make_preconditioner(name, a), cls)

    def test_case_insensitive(self):
        assert isinstance(make_preconditioner("JACOBI", laplacian_1d(5)), JacobiPreconditioner)

    def test_unknown_name(self):
        with pytest.raises(SolverError):
            make_preconditioner("amg", laplacian_1d(5))

    def test_kwargs_forwarded(self):
        p = make_preconditioner("ssor", laplacian_1d(5), omega=1.5)
        assert p.omega == 1.5


class TestOnConstrainedOperators:
    def test_ilu0_on_dirichlet_constrained_operator(self):
        """Preconditioners must handle identity rows from BC application."""
        dm = DofMap(StructuredBoxMesh((4, 4, 4)), 1)
        a = constrain_operator(assemble_stiffness(dm).tocsr(), dm.boundary_dofs)
        p = ILU0Preconditioner(a)
        res = cg(a, np.ones(dm.num_dofs), preconditioner=p, tol=1e-10, maxiter=500)
        assert res.converged
