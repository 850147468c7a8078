"""Rank-local RD assembly: a rank's rows are the whole system's rows, bit for bit.

Each :class:`DistributedRDStep` cuts its owned rows from the launch's
shared operators once and assembles, constrains and refreshes only
those.  Here every rank compares its per-step block against the owned
rows of the sequential ``RDSolver._assemble_system`` on the same state,
and a census checks that no rank builds anything with ``n`` rows.
"""

import numpy as np
import pytest

from repro.apps.reaction_diffusion import DistributedRDStep, RDProblem, run_rd_distributed
from repro.apps.stepping import slab_ownership
from repro.fem.assembly import CompositeOperator
from repro.fem.boundary import DirichletPlan
from repro.fem.dofmap import DofMap
from repro.la.distributed import DistMatrix
from repro.resilience.malleable import decompose
from repro.simmpi.launcher import run_spmd

PROBLEM = RDProblem(mesh_shape=(2, 2, 4), num_steps=3)
NUM_DOFS = DofMap(PROBLEM.mesh(), PROBLEM.order).num_dofs


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class ComparingStep(DistributedRDStep):
    """Checks each step's block against the sequential assembly."""

    def assemble(self):
        super().assemble()
        solver, owned = self.solver, self.ownership[self.comm.rank]
        whole, rhs = solver._assemble_system(solver.t + solver.problem.dt)
        expected = whole[owned]
        rows = self.block.matrix
        self.checks.append(
            rows.shape == (owned.size, NUM_DOFS)
            and all(
                same_bits(getattr(rows, name), getattr(expected, name))
                for name in ("indptr", "indices", "data")
            )
            and same_bits(self._rhs, rhs[owned])
        )


def compare_main(comm, ownership, numbering):
    step = ComparingStep(comm, PROBLEM, None, "jacobi", ownership, numbering)
    step.checks = []
    step.run(PROBLEM.num_steps)
    return step.checks


@pytest.mark.parametrize("numbering", ["owned-first", "global"])
@pytest.mark.parametrize("kind", ["slab", "rcb"])
@pytest.mark.parametrize("num_ranks", [1, 2, 3, 5, 8])
def test_rank_rows_equal_owned_rows_of_sequential_assembly(num_ranks, kind, numbering):
    if kind == "slab":
        ownership = slab_ownership(DofMap(PROBLEM.mesh(), PROBLEM.order), num_ranks)
    else:
        ownership = decompose(PROBLEM, num_ranks)
    returns = run_spmd(
        compare_main, num_ranks, args=(ownership, numbering), real_timeout=120.0
    ).returns
    assert returns == [[True] * PROBLEM.num_steps] * num_ranks


def test_no_rank_builds_an_n_row_matrix_plan_or_position_map(monkeypatch):
    """Census of a p = 4 launch: every combined matrix and Dirichlet plan
    has the rank's ``len(owned)`` rows, and nothing goes through
    :meth:`DistMatrix.from_global` (which slices a global matrix)."""
    rows_seen = []
    combine, plan_init = CompositeOperator.combine, DirichletPlan.__init__

    def counting_combine(self, *args, **kwargs):
        out = combine(self, *args, **kwargs)
        rows_seen.append(out.shape[0])
        return out

    def counting_plan(self, matrix, *args, **kwargs):
        rows_seen.append(matrix.shape[0])
        plan_init(self, matrix, *args, **kwargs)

    def no_global(*args, **kwargs):
        raise AssertionError("DistMatrix.from_global called by the RD step")

    monkeypatch.setattr(CompositeOperator, "combine", counting_combine)
    monkeypatch.setattr(DirichletPlan, "__init__", counting_plan)
    monkeypatch.setattr(DistMatrix, "from_global", no_global)

    def main(comm):
        return run_rd_distributed(comm, PROBLEM, discard=0)[2]

    assert max(run_spmd(main, 4, real_timeout=120.0).returns) < 1e-9
    owned = slab_ownership(DofMap(PROBLEM.mesh(), PROBLEM.order), 4)
    # Per rank: the pattern (one combine, one plan), then one combine a step.
    assert sorted(rows_seen) == sorted(
        idx.size for idx in owned for _ in range(2 + PROBLEM.num_steps)
    )
    assert max(rows_seen) < NUM_DOFS
