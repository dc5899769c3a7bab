"""Unit tests for the core Graph type and edge identifiers."""

from dataclasses import dataclass
from functools import cmp_to_key

import pytest

from repro.planar import Graph, GraphError, edge_id, precedes
from repro.planar.generators import random_planar

# ``precedes`` as a sort key.
order_key = cmp_to_key(lambda a, b: -1 if precedes(a, b) else 1 if precedes(b, a) else 0)


@dataclass(frozen=True)
class Point:
    """A hashable ID with no order."""

    x: int


class TestEdgeId:
    def test_orders_endpoints(self):
        assert edge_id(2, 1) == (1, 2)
        assert edge_id(1, 2) == (1, 2)

    def test_paper_footnote5_convention(self):
        # ID(e) = (ID(u), ID(v)) with ID(u) < ID(v).
        assert edge_id(10, 3) == (3, 10)

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            edge_id(1, 1)

    def test_tuple_ids(self):
        assert edge_id(("v", 2), ("v", 1)) == (("v", 1), ("v", 2))

    def test_pseudo_vertex_endpoint_comes_first(self):
        # A real vertex (an int rank) and a pseudo-vertex (a tuple) are
        # not comparable; the pseudo-vertex orders first either way round.
        assert edge_id(3, ("stub", 1, 2)) == (("stub", 1, 2), 3)
        assert edge_id(("rest",), 0) == (("rest",), 0)
        assert edge_id(("copy", 5, 10, 0), ("copy", 5, ("hub", 1), 0)) == (
            ("copy", 5, ("hub", 1), 0), ("copy", 5, 10, 0)
        )


class TestPrecedes:
    def test_tuples_first_then_natural_order(self):
        nodes = [12, ("stub", 1, 2), 3, ("rest",), ("copy", 5, 2, 0), 100, ("stub", 1, 10)]
        assert sorted(nodes, key=order_key) == [
            ("copy", 5, 2, 0), ("rest",), ("stub", 1, 2), ("stub", 1, 10), 3, 12, 100,
        ]

    def test_orders_wrapped_ids_like_python(self):
        # Ranks with pseudo-vertices order exactly as the ("v", id)
        # tuples and their pseudo-vertices do under plain comparison,
        # since every pseudo-vertex tag sorts before "v".
        def wrap(x):
            if isinstance(x, tuple):
                return tuple(map(wrap, x))
            return ("v", x) if isinstance(x, int) else x

        nodes = [9, 10, ("stub", 9, 10), ("rest",), ("hub", 2), 0, ("stub", 10, ("rest",))]
        ranked = sorted(nodes, key=order_key)
        assert [wrap(x) for x in ranked] == sorted(map(wrap, nodes))

    def test_ints_and_strings_in_one_graph_get_canonical_edge_ids(self):
        # Values that cannot be compared order by repr: "'a'" < "1".
        g = Graph(edges=[(1, "a"), ("a", 2), (2, 1)])
        assert g.edges() == [("a", 1), (1, 2), ("a", 2)]

    @pytest.mark.parametrize("u, v", [(1j, 2j), (Point(1), Point(2)), (1, "a")])
    def test_unorderable_ids_get_canonical_edge_ids(self, u, v):
        assert edge_id(u, v) == edge_id(v, u)
        assert precedes(u, v) is not precedes(v, u)

    def test_edge_ids_mixing_real_and_pseudo_vertices(self):
        edges = [(4, 7), (("stub", 1, 2), 4), (0, 9), (("rest",), 0)]
        assert min(edges, key=order_key) == (("rest",), 0)


class TestGraphBasics:
    def test_edges_lists_each_edge_once_in_first_seen_order(self):
        # The reference: every adjacency entry in order, deduplicated.
        g = random_planar(60, seed=3)
        g.add_edge(("stub", 4, 7), 4)
        g.add_edge(("rest",), 9)
        expected, seen = [], set()
        for u in g.nodes():
            for v in g.neighbors(u):
                if edge_id(u, v) not in seen:
                    seen.add(edge_id(u, v))
                    expected.append(edge_id(u, v))
        assert g.edges() == expected

    def test_empty(self):
        g = Graph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.is_connected()  # vacuous

    def test_add_edge_adds_nodes(self):
        g = Graph()
        g.add_edge(1, 2)
        assert set(g.nodes()) == {1, 2}
        assert g.has_edge(2, 1)

    def test_parallel_edges_coalesce(self):
        g = Graph(edges=[(1, 2), (2, 1), (1, 2)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_edge(3, 3)

    def test_degree_and_neighbors(self):
        g = Graph(edges=[(1, 2), (1, 3), (1, 4)])
        assert g.degree(1) == 3
        assert set(g.neighbors(1)) == {2, 3, 4}
        assert g.degree(2) == 1

    def test_neighbors_insertion_order(self):
        g = Graph()
        for v in (5, 3, 9):
            g.add_edge(0, v)
        assert g.neighbors(0) == [5, 3, 9]

    def test_missing_node_queries_raise(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.neighbors(1)
        with pytest.raises(GraphError):
            g.degree(1)

    def test_remove_edge(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.has_edge(2, 3)
        with pytest.raises(GraphError):
            g.remove_edge(1, 2)

    def test_remove_node(self):
        g = Graph(edges=[(1, 2), (2, 3), (1, 3)])
        g.remove_node(2)
        assert 2 not in g
        assert g.has_edge(1, 3)
        assert g.num_edges == 1

    def test_copy_is_independent(self):
        g = Graph(edges=[(1, 2)])
        h = g.copy()
        h.add_edge(2, 3)
        assert not g.has_edge(2, 3)
        assert h.has_edge(2, 3)

    def test_edges_canonical(self):
        g = Graph(edges=[(2, 1), (3, 2)])
        assert set(g.edges()) == {(1, 2), (2, 3)}

    def test_len_iter_contains(self):
        g = Graph(nodes=[1, 2, 3])
        assert len(g) == 3
        assert sorted(g) == [1, 2, 3]
        assert 2 in g
        assert 7 not in g


class TestSubgraphAndComponents:
    def test_subgraph_induced(self):
        g = Graph(edges=[(1, 2), (2, 3), (3, 1), (3, 4)])
        s = g.subgraph([1, 2, 3])
        assert s.num_edges == 3
        assert 4 not in s

    def test_subgraph_missing_node_raises(self):
        g = Graph(nodes=[1])
        with pytest.raises(GraphError):
            g.subgraph([1, 99])

    def test_components(self):
        g = Graph(edges=[(1, 2), (3, 4)])
        g.add_node(5)
        comps = g.connected_components()
        assert sorted(sorted(c) for c in comps) == [[1, 2], [3, 4], [5]]
        assert not g.is_connected()

    def test_connected_path(self):
        g = Graph(edges=[(i, i + 1) for i in range(9)])
        assert g.is_connected()
