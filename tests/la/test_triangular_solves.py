"""ILU(0) / SSOR ``apply()`` through exact SuperLU factor objects.

``apply()`` no longer calls ``scipy.sparse.linalg.spsolve_triangular``; it
calls ``splu(...).solve`` on objects built once per ``update()``.  Three
contracts keep that a change of cost and not of numerics:

* the *exactness guard*: SuperLU's factors of each triangle are the
  triangle and the identity, entry for entry, with identity permutations —
  a SciPy release that changes a default fails here instead of moving a
  pinned iteration count;
* the *oracle*: the ``spsolve_triangular`` pair that ``apply()`` used to be
  stays here, and ``apply()`` agrees with it within ``BUDGET`` in the
  max-norm, relative (measured <= 7e-16 when this was written);
* the boundary: integer and ``(n, k)`` input, typed errors, pickle.

(``update()`` ≡ fresh build, stored zeros included, is asserted in
``test_preconditioner_update.py``.)
"""

import copy
import functools
import pickle
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

import repro
from repro.apps.reaction_diffusion import RDProblem, RDSolver
from repro.apps.stepping import slab_ownership
from repro.errors import SolverError
from repro.fem.assembly import assemble_mass, assemble_stiffness
from repro.fem.boundary import constrain_operator
from repro.fem.dofmap import DofMap
from repro.fem.mesh import StructuredBoxMesh
from repro.la.preconditioners import (
    BlockJacobiPreconditioner,
    ILU0Preconditioner,
    SSORPreconditioner,
    _TriangularSolve,
)

BUDGET = 1e-13


def _slab_block(mesh_shape, rows):
    """A diagonal block of the distributed RD system at p = 8 (stored zeros
    from the Dirichlet elimination included)."""
    problem = RDProblem(mesh_shape=mesh_shape, num_steps=2)
    solver = RDSolver(problem, assembly_mode="combine")
    owned = next(o for o in slab_ownership(solver.dofmap, 8) if o.size == rows)
    return solver._assemble_system(problem.dt)[0][owned][:, owned].tocsr()


def _random_dominant(n, density, seed):
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=density, random_state=rng,
                  data_rvs=lambda size: rng.uniform(-1.0, 1.0, size))
    a = a - sp.diags(a.diagonal())
    return (a + sp.diags(1.0 + np.asarray(abs(a).sum(axis=1)).ravel())).tocsr()


def _q1():
    return DofMap(StructuredBoxMesh((4, 4, 4)), 1)


def _q2():
    return DofMap(StructuredBoxMesh((2, 2, 3)), 2)


def _stretched():
    return DofMap(StructuredBoxMesh((8, 8, 8), upper=(1.0, 1.0, 8.0)), 1)


# Every matrix family ``tests/la`` builds, plus the rd_spmd slab blocks.
FAMILIES = {
    "empty": lambda: sp.csr_matrix((0, 0)),
    "one_by_one": lambda: sp.csr_matrix([[3.0]]),
    "diagonal": lambda: sp.diags([2.0, 4.0, 8.0]).tocsr(),
    "laplacian_1d": lambda: sp.diags(
        [2.0 * np.ones(20), -np.ones(19), -np.ones(19)], [0, -1, 1]
    ).tocsr(),
    "q1_mass_stiffness": lambda: (assemble_mass(_q1()) + assemble_stiffness(_q1())).tocsr(),
    "q2_mass_stiffness": lambda: (assemble_mass(_q2()) + 0.1 * assemble_stiffness(_q2())).tocsr(),
    "q1_stretched": lambda: (
        assemble_stiffness(_stretched()) + 1e-3 * assemble_mass(_stretched())
    ).tocsr(),
    "dirichlet": lambda: constrain_operator(
        assemble_stiffness(_q1()).tocsr(), _q1().boundary_dofs
    ),
    "random_unsymmetric": lambda: _random_dominant(24, 0.3, seed=5),
    "slab_98": lambda: _slab_block((3, 3, 4), 98),
    "slab_507": lambda: _slab_block((6, 6, 12), 507),
    "slab_676": lambda: _slab_block((6, 6, 12), 676),
}
BUILDERS = {
    "ilu0": ILU0Preconditioner,
    "ssor": SSORPreconditioner,
    "ssor_1.3": lambda a: SSORPreconditioner(a, omega=1.3),
}


@functools.cache
def family(name):
    return FAMILIES[name]()


def _triangles(precond, matrix):
    """The two triangles ``apply()`` must solve with, built the slow way."""
    n = matrix.shape[0]
    if isinstance(precond, ILU0Preconditioner):
        factors = precond._factors
        return (sp.tril(factors, k=-1) + sp.eye(n)).tocsr(), sp.triu(factors).tocsr()
    d_over_w = sp.diags(matrix.diagonal() / precond.omega)
    return (d_over_w + sp.tril(matrix, k=-1)).tocsr(), (d_over_w + sp.triu(matrix, k=1)).tocsr()


def oracle_apply(precond, matrix, v):
    """``apply()`` as it was: one ``spsolve_triangular`` per triangle."""
    if matrix.shape[0] == 0:
        return np.array(v, dtype=float)
    lower, upper = _triangles(precond, matrix)
    if isinstance(precond, ILU0Preconditioner):
        y = spsolve_triangular(lower, v, lower=True, unit_diagonal=True)
        return spsolve_triangular(upper, y, lower=False)
    y = precond._diag_over_w * spsolve_triangular(lower, v, lower=True)
    return precond._scale * spsolve_triangular(upper, y, lower=False)


def _differing(a, b):
    return (a != b).nnz


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("kind", sorted(BUILDERS))
class TestExactnessGuard:
    def test_superlu_factors_are_the_triangle_and_the_identity(self, name, kind):
        matrix = family(name)
        n = matrix.shape[0]
        precond = BUILDERS[kind](matrix)
        lower, upper = _triangles(precond, matrix)
        identity = sp.eye(n, format="csc")
        for solve, triangle in ((precond._solve_lower, lower), (precond._solve_upper, upper)):
            lu = solve._lu
            assert np.array_equal(lu.perm_r, np.arange(n))
            assert np.array_equal(lu.perm_c, np.arange(n))
            fed = triangle.T if solve._trans == "T" else triangle
            assert _differing(solve._matrix, fed.tocsc()) == 0
            if sp.tril(fed, k=-1).nnz:  # a lower triangle: only ever a unit one
                assert np.array_equal(fed.diagonal(), np.ones(n))
                assert _differing(lu.L, fed.tocsc()) == 0
                assert _differing(lu.U, identity) == 0
            else:
                assert _differing(lu.U, fed.tocsc()) == 0
                assert _differing(lu.L, identity) == 0

    def test_apply_agrees_with_the_spsolve_triangular_oracle(self, name, kind):
        matrix = family(name)
        n = matrix.shape[0]
        precond = BUILDERS[kind](matrix)
        rng = np.random.default_rng(11)
        picks = sorted({0, n // 2, n - 1} | set(rng.integers(0, max(n, 1), 5).tolist()))
        vectors = [rng.standard_normal(n), 1e6 * rng.standard_normal(n)]
        vectors += [np.eye(n)[i] for i in picks if 0 <= i < n]
        for v in vectors:
            want = oracle_apply(precond, matrix, v)
            got = precond.apply(v)
            assert got.shape == want.shape
            scale = np.max(np.abs(want), initial=0.0)
            assert np.max(np.abs(got - want), initial=0.0) <= BUDGET * scale


class TestTheRule:
    """Which way a triangle goes in is decided in one place."""

    def test_only_a_non_unit_lower_triangle_is_transposed(self):
        matrix = family("random_unsymmetric")
        upper = _TriangularSolve(matrix, lower=False)
        unit_lower = _TriangularSolve(matrix, lower=True, unit_diagonal=True)
        lower = _TriangularSolve(matrix, lower=True)
        assert (upper._trans, unit_lower._trans, lower._trans) == ("N", "N", "T")
        for solve in (upper, unit_lower, lower):
            solve.refactor(matrix.data)
        assert sp.tril(upper._matrix, k=-1).nnz == 0
        assert sp.triu(unit_lower._matrix, k=1).nnz == 0
        assert np.array_equal(unit_lower._matrix.diagonal(), np.ones(matrix.shape[0]))
        # Stored as the upper triangle it is the transpose of.
        assert _differing(lower._matrix, sp.tril(matrix).T.tocsc()) == 0

    def test_no_spsolve_triangular_call_left_under_src(self):
        """Source census: one path, and the slow one is the test oracle."""
        sources = sorted(Path(repro.__file__).parent.rglob("*.py"))
        assert len(sources) > 50
        for source in sources:
            assert "spsolve_triangular(" not in source.read_text(), source.name


@pytest.mark.parametrize("kind", sorted(BUILDERS))
class TestBoundary:
    """What ``apply()`` accepted and raised before, it accepts and raises now."""

    def test_wrong_length_is_a_solver_error_naming_both_sizes(self, kind):
        precond = BUILDERS[kind](family("laplacian_1d"))
        with pytest.raises(SolverError, match=r"expected 20 rows, got shape \(21,\)"):
            precond.apply(np.ones(21))

    def test_integer_vectors(self, kind):
        precond = BUILDERS[kind](family("laplacian_1d"))
        v = np.arange(20)
        got = precond.apply(v)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, precond.apply(v.astype(float)))

    def test_survives_pickle_and_deepcopy(self, kind):
        first, second = family("q1_mass_stiffness"), family("q1_mass_stiffness") * 2.5
        precond = BUILDERS[kind](first)
        v = np.random.default_rng(3).standard_normal(first.shape[0])
        want = precond.apply(v)
        for clone in (pickle.loads(pickle.dumps(precond)), copy.deepcopy(precond)):
            np.testing.assert_array_equal(clone.apply(v), want)
            clone.update(second)  # the copy owns its factors
            np.testing.assert_array_equal(precond.apply(v), want)
            np.testing.assert_array_equal(clone.apply(v), BUILDERS[kind](second).apply(v))


def test_ilu0_block_of_right_hand_sides():
    """``(n, k)`` input: every column is the vector solve, through block-Jacobi too."""
    matrix = family("q2_mass_stiffness")
    n = matrix.shape[0]
    block = np.random.default_rng(9).standard_normal((n, 3))
    blocks = np.array_split(np.arange(n), 3)
    for precond in (ILU0Preconditioner(matrix), BlockJacobiPreconditioner(matrix, blocks)):
        got = precond.apply(block)
        assert got.shape == (n, 3)
        for j in range(3):
            np.testing.assert_array_equal(got[:, j], precond.apply(block[:, j].copy()))


def test_zero_pivots_never_reach_superlu():
    """``splu`` would report one as an untyped ``RuntimeError``; both users
    check their diagonals first and raise :class:`SolverError` themselves,
    and a refused ``update()`` leaves the preconditioner as it was."""
    regular = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 2.0]]))
    late_zero_pivot = sp.csr_matrix(np.ones((2, 2)))  # u_11 = 1 - 1 * 1
    stored_zero_diagonal = regular.copy()
    stored_zero_diagonal.data[0] = 0.0
    for cls, bad, message in (
        (ILU0Preconditioner, late_zero_pivot, "zero pivot during factorization"),
        (SSORPreconditioner, stored_zero_diagonal, "zero on the diagonal"),
    ):
        with pytest.raises(SolverError, match=message):
            cls(bad)
        precond = cls(regular)
        before = precond.apply(np.ones(2))
        with pytest.raises(SolverError, match=message):
            precond.update(bad)
        np.testing.assert_array_equal(precond.apply(np.ones(2)), before)
