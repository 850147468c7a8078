"""Tests for the incremental hot-path primitives.

:class:`CompositeOperator` must reproduce the naive scipy expression
``a*M + b*K`` bit-for-bit while reusing one merged sparsity pattern;
:class:`DirichletPlan` must reproduce :func:`apply_dirichlet` without
pattern work.  Both are load-bearing for the time-stepping loops.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import AssemblyError
from repro.fem.assembly import (
    CompositeOperator,
    assemble_advection,
    assemble_mass,
    assemble_stiffness,
)
from repro.fem.boundary import DirichletPlan, apply_dirichlet
from repro.fem.dofmap import DofMap
from repro.fem.mesh import StructuredBoxMesh


@pytest.fixture(scope="module")
def operators():
    dm = DofMap(StructuredBoxMesh((3, 3, 3)), 1)
    return {
        "dm": dm,
        "mass": assemble_mass(dm).tocsr(),
        "stiffness": assemble_stiffness(dm).tocsr(),
        "advection": assemble_advection(dm, np.array([1.0, 0.5, -0.25])).tocsr(),
    }


class TestCompositeOperator:
    def test_matches_scipy_expression_bitwise(self, operators):
        comp = CompositeOperator(
            {"mass": operators["mass"], "stiffness": operators["stiffness"]}
        )
        for a, b in [(1.0, 1.0), (250.0, 0.04), (-3.0, 7.5)]:
            combined = comp.combine({"mass": a, "stiffness": b})
            reference = (a * operators["mass"] + b * operators["stiffness"]).tocsr()
            reference.sort_indices()
            diff = (combined - reference).tocsr()
            assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0
            # Bitwise identity at matching positions, not just closeness.
            dense_c, dense_r = combined.toarray(), reference.toarray()
            np.testing.assert_array_equal(dense_c, dense_r)

    def test_out_reuse_returns_same_buffers(self, operators):
        comp = CompositeOperator(
            {"mass": operators["mass"], "stiffness": operators["stiffness"]}
        )
        first = comp.combine({"mass": 2.0, "stiffness": 3.0})
        second = comp.combine({"mass": 5.0, "stiffness": 7.0}, out=first)
        assert second is first
        reference = (5.0 * operators["mass"] + 7.0 * operators["stiffness"]).toarray()
        np.testing.assert_array_equal(second.toarray(), reference)

    def test_three_component_union_pattern(self, operators):
        comp = CompositeOperator(
            {
                "mass": operators["mass"],
                "stiffness": operators["stiffness"],
                "advection": operators["advection"],
            }
        )
        combined = comp.combine(
            {"mass": 1.5, "stiffness": 0.1, "advection": 1.0}
        )
        reference = (
            1.5 * operators["mass"]
            + 0.1 * operators["stiffness"]
            + operators["advection"]
        ).toarray()
        np.testing.assert_array_equal(combined.toarray(), reference)

    def test_update_component_same_pattern(self, operators):
        comp = CompositeOperator(
            {"mass": operators["mass"], "advection": operators["advection"]}
        )
        new_advection = (2.0 * operators["advection"]).tocsr()
        comp.update_component("advection", new_advection)
        combined = comp.combine({"mass": 1.0, "advection": 1.0})
        reference = (operators["mass"] + new_advection).toarray()
        np.testing.assert_array_equal(combined.toarray(), reference)

    def test_validation_errors(self, operators):
        with pytest.raises(AssemblyError):
            CompositeOperator({})
        comp = CompositeOperator({"mass": operators["mass"]})
        with pytest.raises(AssemblyError):
            comp.combine({"unknown": 1.0})
        with pytest.raises(AssemblyError):
            comp.update_component("nope", operators["mass"])
        with pytest.raises(AssemblyError):
            comp.combine({"mass": 1.0}, out=operators["mass"].copy())

    def test_same_pattern_skips_the_union_and_the_copy(self, operators, monkeypatch):
        """Same-pattern components (M and K) need no union, no entry keys
        and no copy of canonical inputs; the result is the union path's
        byte for byte (the union path is forced by a shuffled copy)."""
        mass, stiffness = operators["mass"], operators["stiffness"]
        assert mass.has_canonical_format
        coefficients = {"mass": 250.0, "stiffness": -0.04}
        unsorted = stiffness.copy()
        unsorted.indices = unsorted.indices.copy()
        reverse = np.concatenate([
            np.arange(start, stop)[::-1]
            for start, stop in zip(unsorted.indptr[:-1], unsorted.indptr[1:])
        ])
        unsorted.indices, unsorted.data = unsorted.indices[reverse], unsorted.data[reverse]
        unsorted.has_sorted_indices = False
        union = CompositeOperator({"mass": mass, "stiffness": unsorted}).combine(coefficients)

        from repro.fem import assembly

        def no_keys(matrix):
            raise AssertionError("entry keys computed for same-pattern components")

        monkeypatch.setattr(assembly, "_csr_entry_keys", no_keys)
        comp = CompositeOperator({"mass": mass, "stiffness": stiffness})
        assert comp._indices is mass.indices and comp._indptr is mass.indptr
        fast = comp.combine(coefficients)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(fast, name), getattr(union, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("names", [("mass", "stiffness"), ("mass", "advection")])
    def test_rows_is_the_combined_rows_bitwise(self, operators, names):
        """A cut of rows (any order) combines to the whole combine's rows,
        for same-pattern and union-pattern components alike."""
        comp = CompositeOperator({name: operators[name] for name in names})
        coefficients = dict(zip(names, (1.5, -0.1)))
        whole = comp.combine(coefficients)
        rows = np.random.default_rng(4).permutation(whole.shape[0])[:17]
        cut = comp.rows(rows).combine(coefficients)
        expected = whole[rows]
        assert cut.shape == (rows.size, whole.shape[1])
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(cut, name), getattr(expected, name))
        assert cut.data.tobytes() == expected.data.tobytes()


class TestDirichletPlan:
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_apply_matches_apply_dirichlet(self, operators, symmetric):
        dm = operators["dm"]
        matrix = (operators["mass"] + operators["stiffness"]).tocsr()
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal(dm.num_dofs)
        values = rng.standard_normal(dm.boundary_dofs.size)

        ref_op, ref_rhs = apply_dirichlet(
            matrix, rhs, dm.boundary_dofs, values, symmetric=symmetric
        )
        plan = DirichletPlan(matrix, dm.boundary_dofs, symmetric=symmetric)
        planned_op, planned_rhs = plan.apply(matrix.copy(), rhs.copy(), values)
        np.testing.assert_array_equal(planned_op.toarray(), ref_op.toarray())
        np.testing.assert_array_equal(planned_rhs, ref_rhs)

    def test_plan_is_reusable_across_data_changes(self, operators):
        dm = operators["dm"]
        base = (operators["mass"] + operators["stiffness"]).tocsr()
        plan = DirichletPlan(base, dm.boundary_dofs, symmetric=True)
        rhs = np.ones(dm.num_dofs)
        for scale in (1.0, 4.0, 0.25):
            matrix = base.copy()
            matrix.data *= scale
            ref_op, ref_rhs = apply_dirichlet(
                matrix, rhs, dm.boundary_dofs, 0.5, symmetric=True
            )
            got_op, got_rhs = plan.apply(matrix, rhs.copy(), 0.5)
            np.testing.assert_array_equal(got_op.toarray(), ref_op.toarray())
            np.testing.assert_array_equal(got_rhs, ref_rhs)

    def test_pattern_mismatch_raises(self, operators):
        dm = operators["dm"]
        plan = DirichletPlan(operators["mass"], dm.boundary_dofs)
        other = (
            operators["mass"] + sp.eye(dm.num_dofs, format="csr") * 0.0
        ).tocsr()
        other.eliminate_zeros()
        different = operators["stiffness"]
        if different.nnz != operators["mass"].nnz:
            with pytest.raises(AssemblyError):
                plan.apply(different, np.ones(dm.num_dofs), 0.0)

    def test_validation(self, operators):
        dm = operators["dm"]
        with pytest.raises(AssemblyError):
            DirichletPlan(operators["mass"], np.array([dm.num_dofs + 3]))
        with pytest.raises(AssemblyError):
            DirichletPlan(operators["mass"], np.array([1, 1]))

    def test_row_block_validation(self, operators):
        dm, block = operators["dm"], operators["mass"][:5]
        with pytest.raises(AssemblyError, match="square"):
            DirichletPlan(block, dm.boundary_dofs)
        for rows in (np.arange(4), np.array([0, 1, 2, 3, dm.num_dofs])):
            with pytest.raises(AssemblyError, match="rows"):
                DirichletPlan(block, dm.boundary_dofs, rows=rows)

    @pytest.mark.parametrize(
        "convert", [sp.coo_matrix, lambda m: m.toarray()], ids=["coo", "dense"]
    )
    def test_non_csr_matrix_is_an_assembly_error(self, operators, convert):
        dm = operators["dm"]
        plan = DirichletPlan(operators["mass"], dm.boundary_dofs)
        other = convert(operators["mass"].copy())
        with pytest.raises(AssemblyError, match="CSR"):
            plan.apply(other, np.ones(dm.num_dofs), 0.0)
        with pytest.raises(AssemblyError, match="CSR"):
            plan.constrain_matrix(other)

    def test_unsorted_input_is_planned_as_given_not_sorted(self, operators):
        """The plan neither sorts the caller's matrix nor needs it sorted."""
        dm = operators["dm"]
        matrix = (operators["mass"] + operators["stiffness"]).tocsr()
        reverse = np.concatenate([
            np.arange(start, stop)[::-1]
            for start, stop in zip(matrix.indptr[:-1], matrix.indptr[1:])
        ])
        unsorted = sp.csr_matrix(
            (matrix.data[reverse], matrix.indices[reverse], matrix.indptr),
            shape=matrix.shape,
        )
        indices_before = unsorted.indices.copy()
        plan = DirichletPlan(unsorted, dm.boundary_dofs)
        assert np.array_equal(unsorted.indices, indices_before)
        rhs = np.ones(dm.num_dofs)
        got_op, got_rhs = plan.apply(unsorted, rhs, 0.5)
        ref_op, ref_rhs = apply_dirichlet(matrix, rhs, dm.boundary_dofs, 0.5)
        np.testing.assert_array_equal(got_op.toarray(), ref_op.toarray())
        np.testing.assert_array_equal(got_rhs, ref_rhs)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_row_block_plan_is_the_square_plans_rows(self, operators, symmetric):
        """A plan over rows ``r`` (any order) constrains ``A[r]`` and the
        RHS block exactly as the square plan constrains ``A`` and the RHS."""
        dm = operators["dm"]
        matrix = (operators["mass"] + operators["stiffness"]).tocsr()
        rng = np.random.default_rng(6)
        rhs = rng.standard_normal(dm.num_dofs)
        values = rng.standard_normal(dm.boundary_dofs.size)
        rows = rng.permutation(dm.num_dofs)[:23]
        whole_op, whole_rhs = DirichletPlan(
            matrix, dm.boundary_dofs, symmetric=symmetric
        ).apply(matrix.copy(), rhs, values)
        block = matrix[rows]
        plan = DirichletPlan(block, dm.boundary_dofs, symmetric=symmetric, rows=rows)
        block_op, block_rhs = plan.apply(block, rhs[rows], values)
        assert block_op.shape == (rows.size, dm.num_dofs)
        assert block_op.data.tobytes() == whole_op[rows].data.tobytes()
        assert block_rhs.tobytes() == whole_rhs[rows].tobytes()
