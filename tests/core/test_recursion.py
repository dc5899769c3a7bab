"""The recursive embedding order (paper Section 4)."""

import pytest

from repro.core.algorithm import _wrap
from repro.core.recursion import RecursionContext, embed_subtree
from repro.planar.generators import grid_graph, path_graph, random_tree
from repro.primitives import build_bfs_tree, elect_leader


def run_recursion(graph, strategy="balanced"):
    wrapped, _ids = _wrap(graph)
    leader = elect_leader(wrapped)
    tree = build_bfs_tree(wrapped, leader)
    ctx = RecursionContext(
        graph=wrapped, tree=tree, splitter_strategy=strategy
    )
    part, metrics = embed_subtree(ctx, leader)
    return ctx, part, metrics


class TestRecursion:
    def test_full_graph_covered(self):
        g = grid_graph(5, 5)
        ctx, part, metrics = run_recursion(g)
        assert set(range(g.num_nodes)) <= part.vertices  # plus possible copies
        assert part.boundary == []

    def test_trace_levels_contiguous(self):
        g = grid_graph(6, 6)
        ctx, part, _ = run_recursion(g)
        levels = {r.level for r in ctx.trace}
        assert levels == set(range(max(levels) + 1))

    def test_part_sizes_bounded(self):
        g = random_tree(120, 3)
        ctx, part, _ = run_recursion(g)
        for record in ctx.trace:
            for size in record.part_sizes:
                assert 3 * size <= 2 * record.subtree_size

    def test_rounds_accumulate(self):
        g = grid_graph(5, 5)
        _, _, metrics = run_recursion(g)
        assert metrics.rounds > 0
        assert "subtree-stats" in metrics.phase_rounds
        assert "splitter-walk" in metrics.phase_rounds

    def test_invalid_strategy_rejected(self):
        g = path_graph(6)
        with pytest.raises(ValueError):
            run_recursion(g, strategy="nonsense")

    def test_root_strategy_deepens_recursion(self):
        g = path_graph(40)
        ctx_bal, _, _ = run_recursion(g, "balanced")
        import sys

        sys.setrecursionlimit(20_000)
        ctx_root, _, _ = run_recursion(g, "root")
        assert max(r.level for r in ctx_root.trace) > max(
            r.level for r in ctx_bal.trace
        )

    def test_split_oracle_bookkeeping(self):
        g = grid_graph(6, 6)
        ctx, _, _ = run_recursion(g)
        # oracle rejections never exceed tests
        assert ctx.split_rejections <= ctx.split_tests
