"""Span tree mechanics + the threaded-nesting property (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs.core import Observability, ObsConfig
from repro.obs.spans import SpanStack, iter_spans, spans_named
from repro.simmpi.launcher import run_spmd


class TestSpanStack:
    def test_nesting_and_roots(self):
        stack = SpanStack(rank=3)
        outer = stack.open("outer", 0.0)
        inner = stack.open("inner", 1.0, {"k": 1})
        stack.close(2.0)
        stack.close(5.0)
        assert stack.roots == [outer]
        assert outer.children == [inner]
        assert inner.parent_id == outer.span_id
        assert inner.rank == 3 and outer.rank == 3
        assert inner.duration == 1.0 and outer.duration == 5.0
        assert inner.attrs == {"k": 1}

    def test_close_without_open_raises(self):
        with pytest.raises(ObservabilityError, match="no open span"):
            SpanStack(0).close(1.0)

    def test_close_before_start_raises(self):
        stack = SpanStack(0)
        stack.open("s", 2.0)
        with pytest.raises(ObservabilityError, match="before its start"):
            stack.close(1.0)

    def test_check_balanced_names_open_spans(self):
        stack = SpanStack(0)
        stack.open("left-open", 0.0)
        with pytest.raises(ObservabilityError, match="left-open"):
            stack.check_balanced()

    def test_open_span_duration_raises(self):
        stack = SpanStack(0)
        span = stack.open("s", 0.0)
        assert not span.closed
        with pytest.raises(ObservabilityError, match="still open"):
            _ = span.duration

    def test_iter_and_named(self):
        stack = SpanStack(0)
        stack.open("a", 0.0)
        stack.open("b", 1.0)
        stack.close(2.0)
        stack.open("b", 3.0)
        stack.close(4.0)
        stack.close(5.0)
        names = [s.name for s in iter_spans(stack.roots)]
        assert names == ["a", "b", "b"]
        assert len(spans_named(stack.roots, "b")) == 2


def _shape(node):
    """Nesting shape of a span subtree / a program tree (nested lists)."""
    children = node.children if hasattr(node, "children") else node
    return [_shape(c) for c in children]


_programs = st.recursive(
    st.just([]),
    lambda kids: st.lists(kids, min_size=1, max_size=3),
    max_leaves=8,
)


class TestThreadedNesting:
    """Satellite: span nesting stays correct under threaded simmpi ranks.

    Each rank executes the same randomly generated nesting program on
    its own thread of one shared hub; every rank's tree must reproduce
    the program's shape exactly, stamped with its own rank, with child
    intervals contained in their parents'.
    """

    @given(program=_programs)
    @settings(max_examples=12, deadline=None)
    def test_every_rank_reproduces_the_program(self, program):
        obs = Observability(ObsConfig(discard=0))

        def build(view, node, depth):
            for child in node:
                with view.span("level", depth=depth):
                    build(view, child, depth + 1)

        def main(comm):
            view = obs.rank_view(comm)
            with view.span("root"):
                build(view, program, 1)
                comm.barrier()

        run_spmd(main, 2, observability=obs, real_timeout=60.0)
        obs.check_balanced()
        roots = obs.all_roots()
        assert sorted(roots) == [0, 1]
        for rank, rank_roots in roots.items():
            assert len(rank_roots) == 1
            root = rank_roots[0]
            assert _shape(root) == _shape(program)
            for span in root.walk():
                assert span.rank == rank
                assert span.closed and span.duration >= 0.0
                for child in span.children:
                    assert span.t_start <= child.t_start
                    assert child.t_end <= span.t_end
