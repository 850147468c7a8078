"""Tests for the distributed linear algebra layer over simmpi."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import SolverError
from repro.fem.assembly import assemble_load, assemble_mass, assemble_stiffness
from repro.fem.boundary import apply_dirichlet
from repro.fem.dofmap import DofMap
from repro.fem.mesh import StructuredBoxMesh
from repro.la.distributed import (
    DistBlockJacobiPreconditioner,
    DistJacobiPreconditioner,
    DistMatrix,
    DistVector,
    dist_cg,
    owned_ranges,
)
from repro.la.krylov import cg
from repro.la.preconditioners import JacobiPreconditioner
from repro.simmpi import run_spmd


@pytest.fixture(scope="module")
def poisson():
    dm = DofMap(StructuredBoxMesh((5, 5, 5)), 1)
    k = assemble_stiffness(dm) + assemble_mass(dm)
    f = assemble_load(dm, 1.0)
    a, b = apply_dirichlet(k.tocsr(), f, dm.boundary_dofs, 0.0)
    return a.tocsr(), b


def run(fn, n, **kw):
    kw.setdefault("real_timeout", 30.0)
    return run_spmd(fn, n, **kw)


class TestOwnedRanges:
    def test_cover_and_disjoint(self):
        ranges = owned_ranges(10, 3)
        combined = np.concatenate(ranges)
        assert np.array_equal(np.sort(combined), np.arange(10))
        assert abs(len(ranges[0]) - len(ranges[-1])) <= 1

    def test_validation(self):
        with pytest.raises(SolverError):
            owned_ranges(2, 3)
        with pytest.raises(SolverError):
            owned_ranges(5, 0)


class TestDistVector:
    def test_dot_and_norm_match_global(self, poisson):
        _, b = poisson

        def main(comm):
            ranges = owned_ranges(len(b), comm.size)
            v = DistVector(comm, b[ranges[comm.rank]])
            return v.dot(v), v.norm()

        result = run(main, 4)
        expected = float(b @ b)
        for dot, norm in result.returns:
            assert dot == pytest.approx(expected, rel=1e-12)
            assert norm == pytest.approx(np.sqrt(expected), rel=1e-12)

    def test_axpy_scale_local(self):
        def main(comm):
            v = DistVector(comm, np.ones(3))
            w = DistVector(comm, np.full(3, 2.0))
            v.axpy(0.5, w)
            v.scale(2.0)
            return v.owned.tolist()

        assert run(main, 2).returns[0] == [4.0, 4.0, 4.0]


class TestDistMatrix:
    @pytest.mark.parametrize("num_ranks", [1, 2, 3, 4, 8])
    def test_matvec_matches_sequential(self, poisson, num_ranks):
        a, b = poisson

        def main(comm):
            mat = DistMatrix.from_global(comm, a)
            x = mat.vector_from_global(b)
            y = mat.matvec(x)
            return mat.gather_global(y)

        result = run(main, num_ranks)
        assert np.allclose(result.returns[0], a @ b, atol=1e-12)

    def test_ghost_structure_minimal(self, poisson):
        """Ghosts are exactly the off-rank columns referenced locally."""
        a, _ = poisson

        def main(comm):
            mat = DistMatrix.from_global(comm, a)
            ranges = owned_ranges(a.shape[0], comm.size)
            owned = set(ranges[comm.rank].tolist())
            rows = a[ranges[comm.rank]]
            referenced = set(np.unique(rows.indices).tolist())
            return set(mat.ghost_indices.tolist()) == (referenced - owned)

        assert all(run(main, 4).returns)

    def test_exchange_plan_symmetry(self, poisson):
        """If rank i receives from j, rank j sends to i, same count."""
        a, _ = poisson

        def main(comm):
            mat = DistMatrix.from_global(comm, a)
            recv_counts = {src: len(pos) for src, pos in mat.plan.recv_from.items()}
            send_counts = {dst: len(pos) for dst, pos in mat.plan.send_to.items()}
            return recv_counts, send_counts

        result = run(main, 4)
        for i, (recv_i, _) in enumerate(result.returns):
            for j, count in recv_i.items():
                _, send_j = result.returns[j]
                assert send_j[i] == count

    def test_diagonal_extraction(self, poisson):
        a, _ = poisson

        def main(comm):
            mat = DistMatrix.from_global(comm, a)
            ranges = owned_ranges(a.shape[0], comm.size)
            expected = a.diagonal()[ranges[comm.rank]]
            return np.allclose(mat.diagonal(), expected)

        assert all(run(main, 3).returns)

    def test_custom_ownership(self, poisson):
        a, b = poisson
        n = a.shape[0]
        rng = np.random.default_rng(0)
        perm = rng.permutation(n)
        ownership = [np.sort(chunk) for chunk in np.array_split(perm, 2)]

        def main(comm):
            mat = DistMatrix.from_global(comm, a, ownership=ownership)
            y = mat.matvec(mat.vector_from_global(b))
            return mat.gather_global(y)

        assert np.allclose(run(main, 2).returns[0], a @ b, atol=1e-12)

    def test_bad_ownership_rejected(self, poisson):
        a, _ = poisson

        def main(comm):
            DistMatrix.from_global(comm, a, ownership=[np.arange(10), np.arange(10)])

        with pytest.raises(SolverError):
            run(main, 2)

    @pytest.mark.parametrize(
        "ownership",
        [
            [[0, 1, 1], [2]],      # right count, one duplicate, one gap
            [[0, 1], [2, 7]],      # out of range
            [[0, 1], [2, -1]],     # negative
            [[0, 1, 2], [3, 3]],   # too many
        ],
        ids=["duplicate-plus-gap", "out-of-range", "negative", "over-count"],
    )
    def test_ownership_must_cover_every_dof_exactly_once(self, ownership):
        a = sp.identity(4, format="csr")

        def main(comm):
            DistMatrix.from_global(comm, a, ownership=ownership)

        with pytest.raises(SolverError, match="exactly once"):
            run(main, 2)

    def test_nonsquare_rejected(self):
        def main(comm):
            DistMatrix.from_global(comm, sp.csr_matrix(np.ones((2, 3))))

        with pytest.raises(SolverError):
            run(main, 1)


def dict_built_plan(comm, matrix, ownership):
    """The exchange plan as ``from_global`` built it before it was
    vectorized — one dof at a time, through ``{global: position}``
    dicts.  Returns ``(requests, send_to, recv_from)``."""
    owner_of = np.empty(matrix.shape[0], dtype=np.int64)
    for rank, idx in enumerate(ownership):
        owner_of[idx] = rank
    owned = np.asarray(ownership[comm.rank], dtype=np.int64)
    referenced = np.unique(matrix[owned].indices)
    ghosts = referenced[owner_of[referenced] != comm.rank]
    needs = [[] for _ in range(comm.size)]
    for g in ghosts:
        needs[owner_of[g]].append(int(g))
    requests = [np.asarray(lst, dtype=np.int64) for lst in needs]
    all_needs = comm.alltoall(requests)
    owned_pos = {int(g): i for i, g in enumerate(owned)}
    ghost_pos = {int(g): i for i, g in enumerate(ghosts)}
    send_to = {
        src: np.asarray([owned_pos[int(g)] for g in requested], dtype=np.int64)
        for src, requested in enumerate(all_needs)
        if src != comm.rank and len(requested)
    }
    recv_from = {
        owner: np.asarray([ghost_pos[g] for g in needs[owner]], dtype=np.int64)
        for owner in range(comm.size)
        if owner != comm.rank and needs[owner]
    }
    return requests, send_to, recv_from


def _rd_operator_and_ownerships(num_ranks):
    from repro.apps.reaction_diffusion import RDProblem
    from repro.apps.stepping import slab_ownership
    from repro.resilience.malleable import decompose

    problem = RDProblem(mesh_shape=(3, 3, 4), num_steps=1)
    dm = DofMap(problem.mesh(), problem.order)
    matrix = (assemble_mass(dm) + assemble_stiffness(dm)).tocsr()
    slabs = slab_ownership(dm, num_ranks)
    rng = np.random.default_rng(5)
    return matrix, {
        "slab": slabs,
        "rcb": decompose(problem, num_ranks),  # non-contiguous (malleable path)
        "permuted": [rng.permutation(idx) for idx in slabs],  # caller-ordered
    }


class TestExchangePlan:
    NUM_RANKS = 4

    @pytest.mark.parametrize("kind", ["slab", "rcb", "permuted"])
    @pytest.mark.parametrize("numbering", ["owned-first", "global"])
    def test_plan_equals_dict_built_plan(self, kind, numbering):
        """Same requests on the wire (values, order, int64), same
        ``send_to`` / ``recv_from`` (keys in the same order, values
        equal) as the per-dof construction it replaced."""
        matrix, ownerships = _rd_operator_and_ownerships(self.NUM_RANKS)
        ownership = ownerships[kind]

        def main(comm):
            sent = []
            alltoall = comm.alltoall
            comm.alltoall = lambda items: alltoall(sent.append(items) or items)
            dist = DistMatrix.from_global(
                comm, matrix, ownership=ownership, numbering=numbering
            )
            comm.alltoall = alltoall
            return sent, dist.plan, dict_built_plan(comm, matrix, ownership)

        for (sent,), plan, (requests, send_to, recv_from) in run(
            main, self.NUM_RANKS
        ).returns:
            assert len(sent) == len(requests)
            for got, want in zip(sent, requests):
                assert got.dtype == np.int64 and got.shape == want.shape
                np.testing.assert_array_equal(got, want)
            for got, want in ((plan.send_to, send_to), (plan.recv_from, recv_from)):
                assert list(got) == list(want)
                for peer in want:
                    assert got[peer].dtype == np.int64
                    np.testing.assert_array_equal(got[peer], want[peer])


class TestLocalDiagonalBlock:
    @pytest.mark.parametrize("kind", ["slab", "rcb", "permuted"])
    @pytest.mark.parametrize("numbering", ["owned-first", "global"])
    def test_cached_block_is_the_sliced_block(self, kind, numbering):
        """Sliced once, then refreshed in place: every call returns the same
        matrix, whose ``indptr`` / ``indices`` / ``data`` equal slicing
        ``local_rows`` anew, stored zeros included."""
        matrix, ownerships = _rd_operator_and_ownerships(4)
        first, second = matrix.copy(), matrix.copy()
        first.data[::7] = 0.0
        second.data = np.random.default_rng(2).standard_normal(matrix.nnz)
        second.data[::5] = 0.0

        def main(comm):
            dist = DistMatrix.from_global(
                comm, first, ownership=ownerships[kind], numbering=numbering
            )
            block = dist.local_diagonal_block()
            checks = []
            for values in (first, second):
                dist.update_values(values)
                got = dist.local_diagonal_block()
                sliced = dist.local_rows[:, dist._owned_col_positions].tocsr()
                checks.append(got is block and got.indices is block.indices and all(
                    np.array_equal(getattr(got, name), getattr(sliced, name))
                    and getattr(got, name).dtype == getattr(sliced, name).dtype
                    for name in ("indptr", "indices", "data")
                ))
            return checks

        assert run(main, 4).returns == [[True, True]] * 4


class TestDistCG:
    @pytest.mark.parametrize("num_ranks", [1, 2, 4, 8])
    def test_matches_sequential_solution(self, poisson, num_ranks):
        a, b = poisson
        x_seq = cg(a, b, tol=1e-12, maxiter=1000).x

        def main(comm):
            mat = DistMatrix.from_global(comm, a)
            rhs = mat.vector_from_global(b)
            result = dist_cg(mat, rhs, tol=1e-12, maxiter=1000)
            assert result.converged
            full = mat.gather_global(DistVector(comm, result.x, mat.ghost_indices.size))
            return full, result.iterations

        spmd = run(main, num_ranks)
        x_dist, iters = spmd.returns[0]
        assert np.allclose(x_dist, x_seq, atol=1e-8)
        assert iters > 0
        assert {i for _, i in spmd.returns} == {iters}

    def test_iteration_count_close_to_sequential(self, poisson):
        """Same algorithm, same operator: iteration counts match almost
        exactly (only FP reduction order differs)."""
        a, b = poisson
        seq_iters = cg(a, b, tol=1e-10, maxiter=1000).iterations

        def main(comm):
            mat = DistMatrix.from_global(comm, a)
            result = dist_cg(mat, mat.vector_from_global(b), tol=1e-10, maxiter=1000)
            return result.iterations

        dist_iters = run(main, 4).returns[0]
        assert abs(dist_iters - seq_iters) <= 2

    def test_jacobi_preconditioned(self, poisson):
        a, b = poisson
        x_seq = cg(a, b, preconditioner=JacobiPreconditioner(a), tol=1e-12).x

        def main(comm):
            mat = DistMatrix.from_global(comm, a)
            rhs = mat.vector_from_global(b)
            pre = DistJacobiPreconditioner(mat)
            result = dist_cg(mat, rhs, preconditioner=pre, tol=1e-12)
            assert result.converged
            return mat.gather_global(DistVector(comm, result.x, mat.ghost_indices.size))

        assert np.allclose(run(main, 3).returns[0], x_seq, atol=1e-8)

    def test_block_jacobi_preconditioned(self):
        # The pure interior Poisson operator with a rough RHS — the regime
        # where one-level additive Schwarz visibly helps at few blocks.
        # (The near-identity `poisson` fixture with its smooth RHS is not
        # a meaningful preconditioning benchmark.)
        dm = DofMap(StructuredBoxMesh((10, 10, 10)), 1)
        k = assemble_stiffness(dm).tocsr()
        interior = dm.interior_dofs
        a = k[interior][:, interior].tocsr()
        b = np.random.default_rng(0).standard_normal(a.shape[0])

        def main(comm):
            mat = DistMatrix.from_global(comm, a)
            rhs = mat.vector_from_global(b)
            pre = DistBlockJacobiPreconditioner(mat)
            plain = dist_cg(mat, rhs, tol=1e-10, maxiter=2000)
            fancy = dist_cg(mat, rhs, preconditioner=pre, tol=1e-10, maxiter=2000)
            assert fancy.converged
            return plain.iterations, fancy.iterations

        plain_iters, fancy_iters = run(main, 4).returns[0]
        assert fancy_iters <= plain_iters

    def test_zero_rhs(self, poisson):
        a, _ = poisson

        def main(comm):
            mat = DistMatrix.from_global(comm, a)
            rhs = mat.vector_from_global(np.zeros(a.shape[0]))
            result = dist_cg(mat, rhs)
            return result.converged, float(np.max(np.abs(result.x)))

        converged, max_abs = run(main, 2).returns[0]
        assert converged and max_abs == 0.0

    def test_solver_time_grows_with_slower_network(self, poisson):
        """The same solve costs more virtual time on 1GbE than on IB."""
        from repro.network.model import (
            GIGABIT_ETHERNET,
            INFINIBAND_4X_DDR,
            NetworkModel,
        )
        from repro.network.topology import ClusterTopology

        a, b = poisson

        def main(comm):
            mat = DistMatrix.from_global(comm, a)
            dist_cg(mat, mat.vector_from_global(b), tol=1e-10)
            return comm.time

        eth_topo = ClusterTopology(4, 1, NetworkModel(GIGABIT_ETHERNET))
        ib_topo = ClusterTopology(4, 1, NetworkModel(INFINIBAND_4X_DDR))
        t_eth = max(run(main, 4, topology=eth_topo).returns)
        t_ib = max(run(main, 4, topology=ib_topo).returns)
        assert t_ib < t_eth
