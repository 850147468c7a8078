"""Tests for structured box meshes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MeshError
from repro.fem.dofmap import DofMap
from repro.fem.mesh import StructuredBoxMesh

shapes = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)


class TestConstruction:
    def test_counts(self):
        mesh = StructuredBoxMesh((3, 4, 5))
        assert mesh.num_cells == 60
        assert DofMap(mesh, 1).num_dofs == 4 * 5 * 6

    def test_spacing_and_volume(self):
        mesh = StructuredBoxMesh((2, 4, 5), lower=(0, 0, 0), upper=(2, 2, 10))
        assert np.allclose(mesh.cell_spacings, [1.0, 0.5, 2.0])
        assert mesh.cell_volumes == pytest.approx(np.ones(mesh.num_cells))

    @pytest.mark.parametrize("shape", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
    def test_rejects_nonpositive_shape(self, shape):
        with pytest.raises(MeshError):
            StructuredBoxMesh(shape)

    def test_rejects_inverted_box(self):
        with pytest.raises(MeshError):
            StructuredBoxMesh((2, 2, 2), lower=(0, 0, 0), upper=(1, -1, 1))

    def test_repr_mentions_shape(self):
        assert "2x3x4" in repr(StructuredBoxMesh((2, 3, 4)))


class TestIndexing:
    def test_cell_index_roundtrip(self):
        mesh = StructuredBoxMesh((3, 4, 5))
        for c in range(mesh.num_cells):
            i, j, k = mesh.cell_coords(c)
            assert i + 3 * (j + 4 * k) == c

    def test_vertex_index_x_fastest(self):
        """Q1 DOFs are the vertices, numbered with x varying fastest."""
        coords = DofMap(StructuredBoxMesh((2, 2, 2)), 1).dof_coords
        assert coords[1] == pytest.approx([0.5, 0, 0])
        assert coords[3] == pytest.approx([0, 0.5, 0])
        assert coords[9] == pytest.approx([0, 0, 0.5])


class TestGeometry:
    def test_vertex_coords_corners(self):
        mesh = StructuredBoxMesh((2, 2, 2), lower=(0, 0, 0), upper=(1, 2, 3))
        coords = DofMap(mesh, 1).dof_coords
        assert coords[0] == pytest.approx([0, 0, 0])
        assert coords[-1] == pytest.approx([1, 2, 3])

    def test_cell_centers_of_unit_cube(self):
        mesh = StructuredBoxMesh((2, 1, 1))
        centers = mesh.cell_centers
        assert centers[0] == pytest.approx([0.25, 0.5, 0.5])
        assert centers[1] == pytest.approx([0.75, 0.5, 0.5])

    @given(shape=shapes)
    @settings(max_examples=20, deadline=None)
    def test_cell_centers_average_of_cell_vertices(self, shape):
        mesh = StructuredBoxMesh(shape)
        q1 = DofMap(mesh, 1)
        verts = q1.dof_coords[q1.cell_dofs]  # (nc, 8, 3)
        assert np.allclose(verts.mean(axis=1), mesh.cell_centers)


class TestConnectivity:
    def test_cell_vertices_local_tensor_order(self):
        q1 = DofMap(StructuredBoxMesh((1, 1, 1)), 1)
        coords = q1.dof_coords[q1.cell_dofs[0]]
        # x varies fastest: vertex 1 is +x of vertex 0, vertex 2 is +y.
        assert coords[1] - coords[0] == pytest.approx([1, 0, 0])
        assert coords[2] - coords[0] == pytest.approx([0, 1, 0])
        assert coords[4] - coords[0] == pytest.approx([0, 0, 1])

    def test_face_neighbors_interior(self):
        edges = StructuredBoxMesh((3, 3, 3)).dual_edges
        center = 1 + 3 * (1 + 3 * 1)
        assert np.count_nonzero(edges == center) == 6

    def test_face_neighbors_corner(self):
        edges = StructuredBoxMesh((3, 3, 3)).dual_edges
        neighbors = edges[edges[:, 0] == 0, 1]
        assert sorted(neighbors.tolist()) == [1, 3, 9]
        assert np.count_nonzero(edges == 0) == 3

    @given(shape=shapes)
    @settings(max_examples=20, deadline=None)
    def test_dual_edge_count(self, shape):
        nx, ny, nz = shape
        mesh = StructuredBoxMesh(shape)
        expected = (nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1)
        assert mesh.dual_edges.shape == (expected, 2)

    @given(shape=shapes)
    @settings(max_examples=20, deadline=None)
    def test_dual_edges_sorted_unique(self, shape):
        mesh = StructuredBoxMesh(shape)
        edges = mesh.dual_edges
        if edges.size:
            assert np.all(edges[:, 0] < edges[:, 1])
            assert np.unique(edges, axis=0).shape[0] == edges.shape[0]

    def test_dual_edges_match_face_neighbors(self):
        """Two cells share a face iff their lattice coordinates differ by
        one step along exactly one axis."""
        mesh = StructuredBoxMesh((2, 3, 2))
        ijk = mesh.cell_coords(np.arange(mesh.num_cells))
        steps = np.abs(ijk[:, None, :] - ijk[None, :, :]).sum(axis=2)
        expected = {tuple(p) for p in np.argwhere(np.triu(steps == 1))}
        assert {tuple(e) for e in mesh.dual_edges} == expected


class TestBoundary:
    @given(shape=shapes)
    @settings(max_examples=20, deadline=None)
    def test_boundary_vertex_count(self, shape):
        nx, ny, nz = shape
        mesh = StructuredBoxMesh(shape)
        total = (nx + 1) * (ny + 1) * (nz + 1)
        interior = max(nx - 1, 0) * max(ny - 1, 0) * max(nz - 1, 0)
        assert len(DofMap(mesh, 1).boundary_dofs) == total - interior


class TestExtractBlock:
    def test_block_geometry(self):
        mesh = StructuredBoxMesh((4, 4, 4))
        block = mesh.extract_block((0, 2), (2, 4), (0, 4))
        assert block.shape == (2, 2, 4)
        assert block.lower == pytest.approx([0.0, 0.5, 0.0])
        assert block.upper == pytest.approx([0.5, 1.0, 1.0])

    def test_block_spacing_preserved(self):
        mesh = StructuredBoxMesh((4, 4, 4))
        block = mesh.extract_block((1, 3), (0, 1), (0, 2))
        assert np.allclose(block.cell_spacings, mesh.cell_spacings[0])

    def test_invalid_block_rejected(self):
        mesh = StructuredBoxMesh((4, 4, 4))
        with pytest.raises(MeshError):
            mesh.extract_block((0, 5), (0, 4), (0, 4))
        with pytest.raises(MeshError):
            mesh.extract_block((2, 2), (0, 4), (0, 4))

    @given(shape=shapes, data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_blocks_tile_the_mesh_volume(self, shape, data):
        nx, ny, nz = shape
        mesh = StructuredBoxMesh(shape)
        split = data.draw(st.integers(min_value=1, max_value=nx), label="split")
        left = mesh.extract_block((0, split), (0, ny), (0, nz))
        volume = left.cell_volumes.sum()
        if split < nx:
            right = mesh.extract_block((split, nx), (0, ny), (0, nz))
            volume += right.cell_volumes.sum()
        assert volume == pytest.approx(mesh.cell_volumes.sum())
