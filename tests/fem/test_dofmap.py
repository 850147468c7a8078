"""Tests for DOF numbering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ElementError
from repro.fem.dofmap import DofMap
from repro.fem.mesh import StructuredBoxMesh

shapes = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
orders = st.integers(min_value=1, max_value=2)


class TestCounts:
    @pytest.mark.parametrize(
        "shape,order,expected",
        [((2, 2, 2), 1, 27), ((2, 2, 2), 2, 125), ((3, 1, 1), 1, 16), ((20, 20, 20), 2, 41**3)],
    )
    def test_num_dofs(self, shape, order, expected):
        assert DofMap(StructuredBoxMesh(shape), order).num_dofs == expected

    def test_rejects_order_zero(self):
        with pytest.raises(ElementError):
            DofMap(StructuredBoxMesh((2, 2, 2)), 0)

    @given(shape=shapes, order=orders)
    @settings(max_examples=20, deadline=None)
    def test_lattice_formula(self, shape, order):
        dm = DofMap(StructuredBoxMesh(shape), order)
        nx, ny, nz = shape
        assert dm.num_dofs == (order * nx + 1) * (order * ny + 1) * (order * nz + 1)


class TestCellDofs:
    @given(shape=shapes, order=orders)
    @settings(max_examples=20, deadline=None)
    def test_every_dof_touched(self, shape, order):
        dm = DofMap(StructuredBoxMesh(shape), order)
        touched = np.unique(dm.cell_dofs.ravel())
        assert np.array_equal(touched, np.arange(dm.num_dofs))

    @given(shape=shapes, order=orders)
    @settings(max_examples=20, deadline=None)
    def test_dofs_within_range(self, shape, order):
        dm = DofMap(StructuredBoxMesh(shape), order)
        assert dm.cell_dofs.min() >= 0
        assert dm.cell_dofs.max() < dm.num_dofs

    def test_neighbor_cells_share_face_dofs_q1(self):
        dm = DofMap(StructuredBoxMesh((2, 1, 1)), 1)
        left, right = dm.cell_dofs
        shared = set(left) & set(right)
        assert len(shared) == 4  # one shared face of 4 Q1 nodes

    def test_neighbor_cells_share_face_dofs_q2(self):
        dm = DofMap(StructuredBoxMesh((2, 1, 1)), 2)
        left, right = dm.cell_dofs
        shared = set(left) & set(right)
        assert len(shared) == 9  # one shared face of 9 Q2 nodes

    def test_local_order_matches_element_nodes(self):
        """cell_dofs column a must sit at the element's reference node a."""
        mesh = StructuredBoxMesh((2, 2, 2))
        for order in (1, 2):
            dm = DofMap(mesh, order)
            ref = dm.element.reference_nodes
            for cell in (0, 3, 7):
                origin = mesh.cell_origin(np.array([cell]))[0]
                expected = origin + ref * mesh.spacing
                got = dm.dof_coords[dm.cell_dofs[cell]]
                assert np.allclose(got, expected)


class TestDofCoords:
    def test_corners(self):
        dm = DofMap(StructuredBoxMesh((2, 2, 2), upper=(2.0, 2.0, 2.0)), 2)
        assert dm.dof_coords[0] == pytest.approx([0, 0, 0])
        assert dm.dof_coords[-1] == pytest.approx([2, 2, 2])

    def test_q2_midpoints_present(self):
        dm = DofMap(StructuredBoxMesh((1, 1, 1)), 2)
        assert any(np.allclose(c, [0.5, 0.5, 0.5]) for c in dm.dof_coords)


class TestBoundary:
    @given(shape=shapes, order=orders)
    @settings(max_examples=20, deadline=None)
    def test_boundary_plus_interior_is_everything(self, shape, order):
        dm = DofMap(StructuredBoxMesh(shape), order)
        assert len(dm.boundary_dofs) + len(dm.interior_dofs) == dm.num_dofs
        assert not set(dm.boundary_dofs) & set(dm.interior_dofs)

    @given(shape=shapes, order=orders)
    @settings(max_examples=20, deadline=None)
    def test_boundary_dofs_on_geometry_boundary(self, shape, order):
        dm = DofMap(StructuredBoxMesh(shape), order)
        coords = dm.dof_coords[dm.boundary_dofs]
        lo, hi = dm.mesh.lower, dm.mesh.upper
        on_face = np.any(
            np.isclose(coords, lo[None, :]) | np.isclose(coords, hi[None, :]), axis=1
        )
        assert np.all(on_face)

    def test_interior_count_formula(self):
        dm = DofMap(StructuredBoxMesh((3, 3, 3)), 2)
        # interior lattice is (2*3+1-2)^3 = 5^3
        assert len(dm.interior_dofs) == 125
