"""Tests for the pure collective schedules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommunicatorError
from repro.simmpi.collectives import (
    binomial_children,
    binomial_parent,
    binomial_rounds,
    dissemination_rounds,
    recursive_doubling_plan,
    ring_neighbors,
)

sizes = st.integers(min_value=1, max_value=64)


class TestBinomialTree:
    @given(size=sizes, root=st.integers(min_value=0, max_value=63))
    @settings(max_examples=40, deadline=None)
    def test_tree_is_spanning(self, size, root):
        """Every non-root rank has exactly one parent; edges cover all ranks."""
        root %= size
        reached = {root}
        for rank in range(size):
            for child in binomial_children(rank, size, root):
                assert child not in reached or child == root
                reached.add(child)
        assert reached == set(range(size))

    @given(size=sizes, root=st.integers(min_value=0, max_value=63))
    @settings(max_examples=40, deadline=None)
    def test_parent_child_consistency(self, size, root):
        root %= size
        for rank in range(size):
            parent = binomial_parent(rank, size, root)
            if rank == root:
                assert parent is None
            else:
                assert rank in binomial_children(parent, size, root)

    def test_known_tree_of_8(self):
        # Round k: virtual rank v < 2^k sends to v + 2^k.
        assert binomial_children(0, 8, 0) == [1, 2, 4]
        assert binomial_children(1, 8, 0) == [3, 5]
        assert binomial_children(2, 8, 0) == [6]
        assert binomial_children(4, 8, 0) == []
        assert binomial_parent(7, 8, 0) == 3

    def test_rotated_root(self):
        assert binomial_children(3, 8, 3) == [4, 5, 7]
        assert binomial_parent(3, 8, 3) is None

    @pytest.mark.parametrize("size,rounds", [(1, 0), (2, 1), (8, 3), (9, 4), (64, 6)])
    def test_rounds(self, size, rounds):
        assert binomial_rounds(size) == rounds

    def test_depth_bounded_by_rounds(self):
        for size in (1, 5, 8, 13, 32):
            for rank in range(size):
                depth, node = 0, rank
                while (node := binomial_parent(node, size, 0)) is not None:
                    depth += 1
                assert depth <= binomial_rounds(size)

    def test_validation(self):
        with pytest.raises(CommunicatorError):
            binomial_children(5, 4, 0)
        with pytest.raises(CommunicatorError):
            binomial_parent(0, 0, 0)
        with pytest.raises(CommunicatorError):
            binomial_rounds(0)


class TestDissemination:
    @pytest.mark.parametrize("size,expected", [(1, []), (2, [1]), (5, [1, 2, 4]), (8, [1, 2, 4])])
    def test_offsets(self, size, expected):
        assert dissemination_rounds(size) == expected

    @given(size=sizes)
    @settings(max_examples=30, deadline=None)
    def test_round_count_logarithmic(self, size):
        rounds = dissemination_rounds(size)
        assert len(rounds) == binomial_rounds(size)

    def test_validation(self):
        with pytest.raises(CommunicatorError):
            dissemination_rounds(0)


class TestRecursiveDoubling:
    @given(size=sizes)
    @settings(max_examples=30, deadline=None)
    def test_plan_shape(self, size):
        pof2, masks = recursive_doubling_plan(size)
        assert pof2 <= size < 2 * pof2
        assert len(masks) == max(0, pof2.bit_length() - 1)
        # Masks enumerate the bits of pof2-1.
        assert sum(masks) == pof2 - 1

    def test_power_of_two_no_excess(self):
        pof2, masks = recursive_doubling_plan(16)
        assert pof2 == 16
        assert masks == [1, 2, 4, 8]


class TestRing:
    @given(size=sizes)
    @settings(max_examples=30, deadline=None)
    def test_ring_is_a_cycle(self, size):
        seen = set()
        rank = 0
        for _ in range(size):
            send_to, recv_from = ring_neighbors(rank, size)
            assert ring_neighbors(send_to, size)[1] == rank
            seen.add(rank)
            rank = send_to
        assert seen == set(range(size))
