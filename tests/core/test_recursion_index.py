"""RecursionIndex must agree with the per-call BfsTree recomputation.

The index replaces ``BfsTree.subtree_nodes`` / ``subtree_depth`` walks
and ``sorted(..., key=repr)`` with Euler-tour interval queries and
integer ranks; every query must return exactly what the naive walk
returns, or the recursion would diverge from the walk-based reference
index of the differential suite in ``tests/integration``.
"""

import random

from repro.core.index import RecursionIndex
from repro.primitives.bfs import build_bfs_tree
from repro.planar.generators import grid_graph, random_tree, triangulated_grid
from repro.planar.graph import Graph


def _wrap(graph):
    wrapped = Graph()
    for v in graph.nodes():
        wrapped.add_node(("v", v))
    for u, v in graph.edges():
        wrapped.add_edge(("v", u), ("v", v))
    return wrapped


def _tree_for(graph, root=None):
    wrapped = _wrap(graph)
    nodes = wrapped.nodes()
    return wrapped, build_bfs_tree(wrapped, root or nodes[0])


def _check_against_naive(wrapped, tree):
    index = RecursionIndex.build(tree)
    nodes = wrapped.nodes()
    assert sorted(index.order, key=repr) == sorted(nodes, key=repr)
    for s in nodes:
        naive = tree.subtree_nodes(s)
        span = index.subtree_span(s)
        assert set(span) == naive
        assert index.subtree_size(s) == len(naive)
        assert index.subtree_depth(s) == tree.subtree_depth(s)
    rng = random.Random(7)
    sample = rng.sample(nodes, min(25, len(nodes)))
    assert index.sort(sample) == sorted(sample, key=repr)


def test_index_matches_naive_on_grid():
    _check_against_naive(*_tree_for(grid_graph(6, 7)))


def test_index_matches_naive_on_trigrid():
    _check_against_naive(*_tree_for(triangulated_grid(5, 5)))


def test_index_matches_naive_on_random_trees():
    for seed in range(5):
        _check_against_naive(*_tree_for(random_tree(40, seed=seed)))


def test_subtree_span_is_contiguous_preorder():
    wrapped, tree = _tree_for(grid_graph(5, 5))
    index = RecursionIndex.build(tree)
    for s in wrapped.nodes():
        span = index.subtree_span(s)
        assert span[0] == s  # preorder: the root of the slice leads it
        assert span == index.order[index.tin[s] : index.tout[s]]
