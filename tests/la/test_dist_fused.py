"""Tests for the communication-reduced distributed CG and its support:
batched dots, coalesced ghost updates, in-place matrix refresh, and the
collective-round accounting that makes the savings observable.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import SolverError
from repro.fem.assembly import assemble_load, assemble_mass, assemble_stiffness
from repro.fem.boundary import apply_dirichlet
from repro.fem.dofmap import DofMap
from repro.fem.mesh import StructuredBoxMesh
from repro.la.distributed import (
    DistJacobiPreconditioner,
    DistMatrix,
    DistVector,
    dist_cg,
    dist_cg_fused,
)


def _as_dist_vector(dist, owned):
    return DistVector(dist.comm, owned, dist.ghost_indices.size)
from repro.la.krylov import cg
from repro.simmpi.launcher import run_spmd


@pytest.fixture(scope="module")
def poisson():
    dm = DofMap(StructuredBoxMesh((5, 5, 5)), 1)
    k = assemble_stiffness(dm) + assemble_mass(dm)
    f = assemble_load(dm, 1.0)
    a, b = apply_dirichlet(k.tocsr(), f, dm.boundary_dofs, 0.0)
    return a.tocsr(), b


def run(fn, n, **kw):
    kw.setdefault("real_timeout", 60.0)
    return run_spmd(fn, n, **kw)


class TestFusedCG:
    def test_matches_sequential_cg(self, poisson):
        a, b = poisson
        seq = cg(a, b, tol=1e-12)

        def main(comm):
            dist = DistMatrix.from_global(comm, a)
            result = dist_cg_fused(dist, dist.vector_from_global(b), tol=1e-12)
            full = dist.gather_global(_as_dist_vector(dist, result.x), root=0)
            return comm.bcast(full, root=0), result.converged, result.iterations

        for x, converged, iters in run(main, 4).returns:
            assert converged
            np.testing.assert_allclose(x, seq.x, atol=1e-9)
            # Same Krylov space, same recurrence in exact arithmetic: the
            # fused variant may differ by at most a round-off iteration.
            assert abs(iters - seq.iterations) <= 1

    def test_matches_classic_dist_cg_with_preconditioner(self, poisson):
        a, b = poisson

        def main(comm):
            dist = DistMatrix.from_global(comm, a)
            rhs = dist.vector_from_global(b)
            classic = dist_cg(
                dist, rhs, preconditioner=DistJacobiPreconditioner(dist), tol=1e-12
            )
            fused = dist_cg_fused(
                dist, rhs, preconditioner=DistJacobiPreconditioner(dist), tol=1e-12
            )
            xc = dist.gather_global(_as_dist_vector(dist, classic.x), root=0)
            xf = dist.gather_global(_as_dist_vector(dist, fused.x), root=0)
            if comm.rank == 0:
                return xc, xf, classic.iterations, fused.iterations
            return None

        xc, xf, ic, i_f = run(main, 4).returns[0]
        np.testing.assert_allclose(xf, xc, atol=1e-9)
        assert abs(i_f - ic) <= 1

    def test_exactly_one_allreduce_round_per_iteration(self, poisson):
        """The tentpole acceptance criterion: after the two startup
        rounds (norm of b, initial fused dots), the fused CG performs
        EXACTLY one allreduce round per iteration — counted by the
        actual collective traffic in the simulator, not by bookkeeping.
        """
        a, b = poisson

        def main(comm):
            dist = DistMatrix.from_global(comm, a)
            before = comm.collective_counts["allreduce"]
            result = dist_cg_fused(dist, dist.vector_from_global(b), tol=1e-12)
            after = comm.collective_counts["allreduce"]
            return result.iterations, result.allreduce_rounds, after - before

        for iters, rounds, observed in run(main, 4).returns:
            assert rounds == 2 + iters
            assert observed == rounds

    def test_traced_collective_count_agrees(self, poisson):
        a, b = poisson

        def main(comm):
            dist = DistMatrix.from_global(comm, a)
            result = dist_cg_fused(dist, dist.vector_from_global(b), tol=1e-12)
            return result.allreduce_rounds

        result = run(main, 4, trace=True)
        rounds = result.returns[0]
        # from_global itself performs no allreduces, so the trace count
        # per rank is exactly the solver's.
        traced = [
            r for r in result.tracer.snapshot()
            if (r.rank, r.kind, r.label) == (0, "collective", "allreduce")
        ]
        assert len(traced) == rounds

    def test_classic_cg_needs_three_rounds_per_iteration(self, poisson):
        """Baseline for the 3x message-count reduction claim."""
        a, b = poisson

        def main(comm):
            dist = DistMatrix.from_global(comm, a)
            before = comm.collective_counts["allreduce"]
            result = dist_cg(dist, dist.vector_from_global(b), tol=1e-12)
            after = comm.collective_counts["allreduce"]
            return result.iterations, after - before

        for iters, observed in run(main, 4).returns:
            assert observed == 3 + 3 * iters

    def test_breakdown_raises(self):
        indefinite = sp.csr_matrix(np.diag([1.0, -1.0, 2.0, -2.0]))
        b = np.ones(4)

        def main(comm):
            dist = DistMatrix.from_global(comm, indefinite)
            try:
                dist_cg_fused(dist, dist.vector_from_global(b), tol=1e-12)
            except SolverError:
                return "raised"
            return "no error"

        assert run(main, 2).returns[0] == "raised"


class TestDotMany:
    def test_matches_individual_dots(self, poisson):
        _, b = poisson

        def main(comm):
            dist_b = None
            from repro.la.distributed import DistVector, owned_ranges

            ranges = owned_ranges(len(b), comm.size)
            v = DistVector(comm, b[ranges[comm.rank]])
            w = DistVector(comm, 2.0 * b[ranges[comm.rank]])
            before = comm.collective_counts["allreduce"]
            batched = v.dot_many([(v, v), (v, w), (w, w)])
            rounds = comm.collective_counts["allreduce"] - before
            return batched.tolist(), v.dot(v), v.dot(w), w.dot(w), rounds

        batched, vv, vw, ww, rounds = run(main, 3).returns[0]
        assert rounds == 1
        assert batched == pytest.approx([vv, vw, ww], rel=1e-14)


class TestUpdateValues:
    def test_refreshed_matvec_matches_redistribution(self, poisson):
        a, b = poisson
        scaled = a.copy()
        scaled.data *= 3.5

        def main(comm):
            dist = DistMatrix.from_global(comm, a)
            assert dist.update_values(scaled) is dist
            fresh = DistMatrix.from_global(comm, scaled)
            x = dist.vector_from_global(b)
            y_updated = dist.matvec(x)
            y_fresh = fresh.matvec(dist.vector_from_global(b))
            return (
                np.array_equal(y_updated.owned, y_fresh.owned),
                True,
            )

        for same, _ in run(main, 4).returns:
            assert same

    def test_pattern_change_raises(self, poisson):
        a, _ = poisson
        denser = (a + sp.eye(a.shape[0], k=5, format="csr") * 0.01).tocsr()

        def main(comm):
            dist = DistMatrix.from_global(comm, a)
            try:
                dist.update_values(denser)
            except SolverError as err:
                return str(err)
            return "no error"

        message = run(main, 2).returns[0]
        assert "pattern" in message

    def test_same_nnz_different_pattern_raises(self):
        """Shape and nnz agree, the columns do not: refused, not written
        into the old pattern's slots."""
        tridiagonal = sp.csr_matrix(
            [[4, 1, 0, 0], [1, 4, 1, 0], [0, 1, 4, 1], [0, 0, 1, 4]], dtype=float
        )
        moved = sp.csr_matrix(
            [[4, 0, 1, 0], [1, 4, 1, 0], [0, 1, 4, 1], [1, 0, 0, 4]], dtype=float
        )
        assert moved.nnz == tridiagonal.nnz

        def main(comm):
            dist = DistMatrix.from_global(comm, tridiagonal)
            before = dist.local_rows.toarray()
            try:
                dist.update_values(moved)
            except SolverError as err:
                return "pattern" in str(err) and np.array_equal(
                    dist.local_rows.toarray(), before
                )
            return False

        assert run(main, 2).returns == [True, True]

    def test_update_rows_takes_the_owned_rows(self, poisson):
        """``update_rows`` of the owned rows is ``update_values`` of the
        whole matrix; a pattern validated once is re-checked by identity."""
        a, b = poisson
        scaled = a.copy()
        scaled.data *= 3.5

        def main(comm):
            by_rows = DistMatrix.from_global(comm, a)
            by_global = DistMatrix.from_global(comm, a)
            owned_rows = scaled[by_rows.owned_indices]
            by_rows.update_rows(owned_rows)
            assert by_rows._guard._validated_indices is owned_rows.indices
            by_global.update_values(scaled)
            return np.array_equal(by_rows.local_rows.data, by_global.local_rows.data)

        assert all(run(main, 3).returns)
