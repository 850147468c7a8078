"""ILU(0) wave replay against the row-by-row IKJ loop it replaced.

The arithmetic is unchanged — every entry receives the same
subtractions in the same order — so the contract is bit-identity
(``np.array_equal``), not a tolerance: ``run --all`` prints a nodal
error from a block-Jacobi solve whose rendered hash is pinned.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.reaction_diffusion import RDProblem, RDSolver
from repro.apps.stepping import slab_ownership
from repro.fem.assembly import assemble_mass, assemble_stiffness
from repro.fem.dofmap import DofMap
from repro.fem.mesh import StructuredBoxMesh
from repro.la import preconditioners
from repro.la.preconditioners import ILU0Preconditioner
from repro.resilience.malleable import decompose


def ikj_oracle(matrix):
    """Row-by-row IKJ ILU(0) on CSR arrays: ``(factor data, flops)``."""
    csr = matrix.tocsr().copy()
    csr.sum_duplicates()
    csr.sort_indices()
    indptr, indices, data = csr.indptr, csr.indices, csr.data.astype(float)
    flops = 0
    diag = [indptr[i] + list(indices[indptr[i]:indptr[i + 1]]).index(i)
            for i in range(csr.shape[0])]
    for i in range(1, csr.shape[0]):
        col_to_pos = {int(indices[p]): p for p in range(indptr[i], indptr[i + 1])}
        for pos in range(indptr[i], diag[i]):
            k = indices[pos]
            lik = data[pos] / data[diag[k]]
            data[pos] = lik
            flops += 1
            for kpos in range(diag[k] + 1, indptr[k + 1]):
                tgt = col_to_pos.get(int(indices[kpos]))
                if tgt is not None:
                    data[tgt] -= lik * data[kpos]
                    flops += 2
    return data, flops


def assert_matches_oracle(precond, matrix):
    data, flops = ikj_oracle(matrix)
    assert np.array_equal(precond._factors.data, data)
    assert precond.setup_flops == flops


@pytest.fixture(scope="module")
def slab_blocks():
    """Rank 0's diagonal block of the rd_spmd system at p = 8, steps 1 and 2."""
    problem = RDProblem(mesh_shape=(6, 6, 12), num_steps=2)
    solver = RDSolver(problem, assembly_mode="combine")
    owned = slab_ownership(solver.dofmap, 8)[0]
    return [
        solver._assemble_system(step * problem.dt)[0][owned][:, owned].tocsr()
        for step in (1, 2)
    ]


def test_q2_mass_plus_stiffness():
    dm = DofMap(StructuredBoxMesh((2, 2, 3)), 2)
    a = (assemble_mass(dm) + 0.1 * assemble_stiffness(dm)).tocsr()
    assert_matches_oracle(ILU0Preconditioner(a), a)


def test_slab_block_with_explicit_zeros(slab_blocks):
    first, second = slab_blocks
    assert (first.data == 0.0).any()  # Dirichlet elimination keeps the pattern
    precond = ILU0Preconditioner(first)
    assert_matches_oracle(precond, first)
    assert not np.array_equal(first.data, second.data)
    assert_matches_oracle(precond.update(second), second)


def test_slab_block_schedule_shape(slab_blocks):
    """A per-step (or lock-step-per-row-level) replay fails a count here.

    Every index array is ``intp``, so no fancy index casts it per call,
    and a wave carries one target count per step, not one multiplier
    index per target."""
    waves = ILU0Preconditioner(slab_blocks[0])._schedule
    assert sum(pos.size for pos, *_ in waves) == 10_551
    assert len(waves) <= 122
    for pos, dpos, counts, tgts, srcs in waves:
        assert pos.size == dpos.size == counts.size > 0
        assert tgts.size == srcs.size == counts.sum() == np.unique(tgts).size
        for array in (pos, dpos, counts, tgts, srcs):
            assert array.dtype == np.intp


def test_slab_block_construction_peak_memory():
    """The transient of a build stays bounded: the ``tracemalloc`` peak
    of building ILU(0) on the 676-row rank-4 slab block of the rd_spmd
    system at p = 8 is at most 10 % above the 9.87 MB the row-key
    ``searchsorted`` build peaked at.  Expanding 8 192 steps at a time
    instead of ``_SYMBOLIC_CHUNK`` peaks at 12.0 MB."""
    problem = RDProblem(mesh_shape=(6, 6, 12), num_steps=2)
    solver = RDSolver(problem, assembly_mode="combine")
    owned = slab_ownership(solver.dofmap, 8)[4]
    block = solver._assemble_system(problem.dt)[0][owned][:, owned].tocsr()
    assert block.shape == (676, 676)
    ILU0Preconditioner(block)  # the first build imports scipy.sparse.linalg
    tracemalloc.start()
    try:
        ILU0Preconditioner(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.10 * 9.87e6


def test_larger_than_the_lookup_budget():
    """Past ``_LOOKUP_CELLS`` the target map holds a window of rows at a
    time, and each window's targets are scattered into wave order."""
    dm = DofMap(StructuredBoxMesh((10, 10, 10)), 1)
    a = (assemble_mass(dm) + assemble_stiffness(dm)).tocsr()
    assert a.shape[0] ** 2 > preconditioners._LOOKUP_CELLS
    assert_matches_oracle(ILU0Preconditioner(a), a)


@pytest.fixture(scope="module")
def rcb_numbered():
    """The (3, 3, 4) RD system numbered part by part of its RCB
    decomposition at p = 8, as malleable runs partition it: a row couples
    to rows across the numbering, not in a band."""
    problem = RDProblem(mesh_shape=(3, 3, 4), num_steps=1)
    solver = RDSolver(problem, assembly_mode="combine")
    order = np.concatenate(decompose(problem, 8))
    return solver._assemble_system(problem.dt)[0][order][:, order].tocsr()


@pytest.mark.parametrize("rows_per_window", [None, 1, 37])
def test_rcb_numbered_system(rcb_numbered, rows_per_window):
    """Whole, one row, and 37 rows per window of the target map."""
    a = rcb_numbered
    cells = preconditioners._LOOKUP_CELLS if rows_per_window is None else (
        rows_per_window * a.shape[0])
    with mock.patch.object(preconditioners, "_LOOKUP_CELLS", cells):
        assert_matches_oracle(ILU0Preconditioner(a), a)


@st.composite
def dominant_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    a = sp.random(n, n, density=density, random_state=rng,
                  data_rvs=lambda size: rng.uniform(0.1, 1.0, size) * rng.choice([-1.0, 1.0], size))
    a = a - sp.diags(a.diagonal())
    return (a + sp.diags(1.0 + np.asarray(abs(a).sum(axis=1)).ravel())).tocsr()


@given(matrix=dominant_matrices(), scale=st.floats(min_value=0.5, max_value=2.0))
@example(matrix=sp.csr_matrix([[3.0]]), scale=1.0)
@example(matrix=sp.diags([2.0, 4.0, 8.0]).tocsr(), scale=1.0)
@settings(max_examples=60, deadline=None)
def test_random_unsymmetric_patterns(matrix, scale):
    refreshed = (matrix + scale * sp.diags(matrix.diagonal())).tocsr()
    precond = ILU0Preconditioner(matrix)
    assert_matches_oracle(precond, matrix)
    assert_matches_oracle(precond.update(refreshed), refreshed)
    # The same with a target map of two rows (one window per two rows).
    with mock.patch.object(preconditioners, "_LOOKUP_CELLS", 2 * matrix.shape[0]):
        windowed = ILU0Preconditioner(matrix)
    assert_matches_oracle(windowed, matrix)
    assert_matches_oracle(windowed.update(refreshed), refreshed)


def test_diagonal_matrix_has_no_waves():
    precond = ILU0Preconditioner(sp.diags([2.0, 4.0, 8.0]).tocsr())
    assert precond._schedule == [] and precond.setup_flops == 0
    assert np.array_equal(precond.apply(np.ones(3)), [0.5, 0.25, 0.125])
