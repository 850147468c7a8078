"""Tests for the three partitioners and quality metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.fem.mesh import StructuredBoxMesh
from repro.partition.quality import edge_cut, load_imbalance
from repro.partition.graph import partition_graph
from repro.partition.rcb import partition_rcb
from repro.partition.grid import ProcessGrid, block_ranges, partition_block

PARTITIONERS = {
    "block": partition_block,
    "rcb": partition_rcb,
    "graph": partition_graph,
}


def check_valid_partition(mesh, assignment, num_parts):
    assert assignment.shape == (mesh.num_cells,)
    assert assignment.min() >= 0
    assert assignment.max() < num_parts
    sizes = np.bincount(assignment, minlength=num_parts)
    assert np.all(sizes > 0), "every part must own at least one cell"


class TestProcessGrid:
    def test_cubic(self):
        g = ProcessGrid.for_ranks(27)
        assert g.dims == (3, 3, 3)
        assert g.size == 27

    @pytest.mark.parametrize("n,expected", [(1, (1, 1, 1)), (8, (2, 2, 2)),
                                            (12, (2, 2, 3)), (63, (3, 3, 7))])
    def test_for_ranks_near_cubic(self, n, expected):
        assert ProcessGrid.for_ranks(n).dims == expected

    def test_for_ranks_rejects_zero(self):
        with pytest.raises(PartitionError):
            ProcessGrid.for_ranks(0)

    def test_rank_coords_roundtrip(self):
        g = ProcessGrid((2, 3, 4))
        for r in range(g.size):
            assert g.coords_rank(*g.rank_coords(r)) == r

    def test_neighbors_interior(self):
        g = ProcessGrid((3, 3, 3))
        center = g.coords_rank(1, 1, 1)
        nbs = g.neighbors(center)
        assert len(nbs) == 6
        assert nbs["x+"] == g.coords_rank(2, 1, 1)

    def test_neighbors_corner(self):
        g = ProcessGrid((2, 2, 2))
        assert set(g.neighbors(0)) == {"x+", "y+", "z+"}

    def test_max_neighbor_count(self):
        for dims, most in (((1, 1, 1), 0), ((2, 1, 1), 1), ((3, 3, 3), 6)):
            g = ProcessGrid(dims)
            assert max(len(g.neighbors(r)) for r in range(g.size)) == most

    def test_invalid_dims(self):
        with pytest.raises(PartitionError):
            ProcessGrid((0, 1, 1))

    def test_bad_rank_query(self):
        with pytest.raises(PartitionError):
            ProcessGrid((2, 2, 2)).rank_coords(8)


class TestBlockPartition:
    def test_perfect_cube_weak_scaling_layout(self):
        """The paper's layout: 40^3 mesh over 8 ranks = 20^3 each."""
        mesh = StructuredBoxMesh((40, 40, 40))
        assignment = partition_block(mesh, ProcessGrid((2, 2, 2)))
        sizes = np.bincount(assignment)
        assert np.all(sizes == 20**3)

    def test_uneven_split_balanced(self):
        mesh = StructuredBoxMesh((7, 5, 3))
        assignment = partition_block(mesh, ProcessGrid((2, 2, 1)))
        check_valid_partition(mesh, assignment, 4)
        assert load_imbalance(mesh, assignment, 4) < 1.4

    def test_grid_int_shorthand(self):
        mesh = StructuredBoxMesh((8, 8, 8))
        assignment = partition_block(mesh, 8)
        check_valid_partition(mesh, assignment, 8)

    def test_grid_larger_than_mesh_rejected(self):
        with pytest.raises(PartitionError):
            partition_block(StructuredBoxMesh((2, 2, 2)), ProcessGrid((4, 1, 1)))

    def test_blocks_are_contiguous_boxes(self):
        mesh = StructuredBoxMesh((6, 6, 6))
        grid = ProcessGrid((2, 2, 2))
        assignment = partition_block(mesh, grid)
        for rank, (ir, jr, kr) in enumerate(block_ranges(mesh, grid)):
            cells = np.nonzero(assignment == rank)[0]
            coords = mesh.cell_coords(cells)
            assert coords[:, 0].min() == ir[0] and coords[:, 0].max() == ir[1] - 1
            assert coords[:, 1].min() == jr[0] and coords[:, 1].max() == jr[1] - 1
            assert coords[:, 2].min() == kr[0] and coords[:, 2].max() == kr[1] - 1

    def test_block_ranges_cover_mesh(self):
        mesh = StructuredBoxMesh((5, 4, 3))
        grid = ProcessGrid((2, 2, 3))
        total = sum(
            (i1 - i0) * (j1 - j0) * (k1 - k0)
            for (i0, i1), (j0, j1), (k0, k1) in block_ranges(mesh, grid)
        )
        assert total == mesh.num_cells

    def test_cut_matches_analytic_for_even_split(self):
        """2x1x1 split of an n^3 mesh cuts exactly n^2 faces."""
        mesh = StructuredBoxMesh((4, 4, 4))
        assignment = partition_block(mesh, ProcessGrid((2, 1, 1)))
        assert edge_cut(mesh, assignment) == 16


class TestRCB:
    @given(
        shape=st.tuples(*[st.integers(min_value=2, max_value=6)] * 3),
        num_parts=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_valid_balanced_partitions(self, shape, num_parts):
        mesh = StructuredBoxMesh(shape)
        if num_parts > mesh.num_cells:
            return
        assignment = partition_rcb(mesh, num_parts)
        check_valid_partition(mesh, assignment, num_parts)
        assert load_imbalance(mesh, assignment, num_parts) <= 2.0

    def test_power_of_two_nearly_perfect_balance(self):
        mesh = StructuredBoxMesh((8, 8, 8))
        assignment = partition_rcb(mesh, 8)
        sizes = np.bincount(assignment)
        assert sizes.max() - sizes.min() <= 1

    def test_splits_longest_axis_first(self):
        mesh = StructuredBoxMesh((8, 2, 2))
        assignment = partition_rcb(mesh, 2)
        coords = mesh.cell_coords(np.arange(mesh.num_cells))
        left = coords[assignment == assignment[0]]
        # All cells in the first part share the low-x half.
        assert left[:, 0].max() < 4

    def test_rejects_bad_args(self):
        mesh = StructuredBoxMesh((2, 2, 2))
        with pytest.raises(PartitionError):
            partition_rcb(mesh, 0)
        with pytest.raises(PartitionError):
            partition_rcb(mesh, 9)

    def test_odd_part_count(self):
        mesh = StructuredBoxMesh((6, 6, 6))
        assignment = partition_rcb(mesh, 5)
        check_valid_partition(mesh, assignment, 5)
        assert load_imbalance(mesh, assignment, 5) < 1.2


class TestGraphPartition:
    @given(
        shape=st.tuples(*[st.integers(min_value=2, max_value=5)] * 3),
        num_parts=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_valid_partitions(self, shape, num_parts):
        mesh = StructuredBoxMesh(shape)
        if num_parts > mesh.num_cells:
            return
        assignment = partition_graph(mesh, num_parts)
        check_valid_partition(mesh, assignment, num_parts)
        assert load_imbalance(mesh, assignment, num_parts) <= 2.0

    def test_single_part(self):
        mesh = StructuredBoxMesh((3, 3, 3))
        assert np.all(partition_graph(mesh, 1) == 0)

    def test_refinement_does_not_hurt_cut(self):
        mesh = StructuredBoxMesh((6, 6, 6))
        raw = partition_graph(mesh, 4, refine_passes=0)
        refined = partition_graph(mesh, 4, refine_passes=6)
        assert edge_cut(mesh, refined) <= edge_cut(mesh, raw)

    def test_competitive_with_block_on_cubes(self):
        """Graph partitioner should stay within 2.5x of the optimal block cut."""
        mesh = StructuredBoxMesh((8, 8, 8))
        block_cut = edge_cut(mesh, partition_block(mesh, ProcessGrid((2, 2, 2))))
        graph_cut = edge_cut(mesh, partition_graph(mesh, 8))
        assert graph_cut <= 2.5 * block_cut

    def test_rejects_too_many_parts(self):
        with pytest.raises(PartitionError):
            partition_graph(StructuredBoxMesh((2, 1, 1)), 3)


class TestQualityMetrics:
    def test_edge_cut_zero_for_single_part(self):
        mesh = StructuredBoxMesh((3, 3, 3))
        assert edge_cut(mesh, np.zeros(27, dtype=int)) == 0

    def test_edge_cut_all_distinct(self):
        mesh = StructuredBoxMesh((2, 1, 1))
        assert edge_cut(mesh, np.array([0, 1])) == 1

    def test_imbalance_perfect(self):
        mesh = StructuredBoxMesh((4, 1, 1))
        assert load_imbalance(mesh, np.array([0, 0, 1, 1])) == pytest.approx(1.0)

    def test_imbalance_skewed(self):
        mesh = StructuredBoxMesh((4, 1, 1))
        assert load_imbalance(mesh, np.array([0, 0, 0, 1])) == pytest.approx(1.5)

    def test_rejects_unassigned(self):
        mesh = StructuredBoxMesh((2, 1, 1))
        with pytest.raises(PartitionError):
            edge_cut(mesh, np.array([0, -1]))

    def test_rejects_bad_shape(self):
        mesh = StructuredBoxMesh((2, 1, 1))
        with pytest.raises(PartitionError):
            load_imbalance(mesh, np.array([0]))


class TestCrossPartitionerComparison:
    """The ablation angle: all three produce valid partitions; block wins on cut."""

    @pytest.mark.parametrize("name", list(PARTITIONERS))
    def test_twenty_cubed_per_part(self, name):
        """Shrunk version of the paper setup: 8 parts of a 2x(10^3) mesh."""
        mesh = StructuredBoxMesh((10, 10, 10))
        assignment = PARTITIONERS[name](mesh, 8)
        check_valid_partition(mesh, assignment, 8)
        assert load_imbalance(mesh, assignment, 8) < 1.35

    def test_block_is_best_cut_on_structured_cubes(self):
        mesh = StructuredBoxMesh((8, 8, 8))
        cuts = {
            name: edge_cut(mesh, fn(mesh, 8)) for name, fn in PARTITIONERS.items()
        }
        assert cuts["block"] <= cuts["rcb"]
        assert cuts["block"] <= cuts["graph"]
