"""Biconnected decomposition and block-cut tree, vs the networkx oracle."""

import random

import networkx as nx
import pytest

from repro.planar import (
    Graph,
    biconnected_components,
    edge_id,
)
from repro.planar.generators import (
    caterpillar,
    cycle_graph,
    grid_graph,
    path_graph,
    random_planar,
    random_tree,
    theta_graph,
)


def to_nx(g):
    h = nx.Graph(g.edges())
    h.add_nodes_from(g.nodes())
    return h


class TestKnownDecompositions:
    def test_path_blocks_are_edges(self):
        g = path_graph(5)
        d = biconnected_components(g)
        assert len(d.components) == 4
        assert all(c.is_bridge for c in d.components)
        assert d.cut_vertices() == {1, 2, 3}

    def test_cycle_single_block(self):
        g = cycle_graph(7)
        d = biconnected_components(g)
        assert len(d.components) == 1
        assert d.cut_vertices() == set()

    def test_two_triangles_sharing_vertex(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        d = biconnected_components(g)
        assert len(d.components) == 2
        assert d.cut_vertices() == {2}
        assert d.is_cut_vertex(2)
        assert not d.is_cut_vertex(0)

    def test_component_id_is_min_edge_id(self):
        # Paper footnote 5: component ID = smallest edge ID inside it.
        g = cycle_graph(4)
        d = biconnected_components(g)
        assert d.components[0].component_id == (0, 1)

    def test_shared_component_of_edge(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3)])
        d = biconnected_components(g)
        assert d.shared_component(2, 3) == edge_id(2, 3)
        assert d.shared_component(0, 1) == d.shared_component(1, 2)

    def test_isolated_vertex_has_no_blocks(self):
        g = Graph(nodes=[0])
        d = biconnected_components(g)
        assert d.components == []
        assert d.components_of[0] == []

    def test_every_edge_in_exactly_one_block(self):
        g = random_planar(40, 70, seed=3)
        d = biconnected_components(g)
        covered = [e for c in d.components for e in c.edges]
        assert sorted(covered) == sorted(edge_id(u, v) for u, v in g.edges())


class TestVsNetworkx:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        nxg = nx.gnp_random_graph(rng.randrange(2, 25), rng.random(), seed=seed)
        g = Graph(nodes=nxg.nodes(), edges=nxg.edges())
        d = biconnected_components(g)
        expected_cuts = set(nx.articulation_points(nxg))
        assert d.cut_vertices() == expected_cuts
        expected_blocks = sorted(
            sorted(frozenset(map(tuple, map(sorted, comp))))
            for comp in nx.biconnected_component_edges(nxg)
        )
        got_blocks = sorted(sorted(c.edges) for c in d.components)
        assert got_blocks == expected_blocks

    @pytest.mark.parametrize(
        "g",
        [path_graph(10), cycle_graph(8), grid_graph(4, 4), theta_graph(3, 3),
         caterpillar(6, 2), random_tree(30, 2)],
        ids=["path", "cycle", "grid", "theta", "caterpillar", "tree"],
    )
    def test_articulation_points_families(self, g):
        cuts = biconnected_components(g).cut_vertices()
        assert cuts == set(nx.articulation_points(to_nx(g)))


def block_cut_tree(decomposition):
    """The bipartite block-cut graph the Steiner walk of
    ``repro.core.interface.steiner_blocks`` walks: a block is adjacent to
    the cut vertices it contains (``components_of`` lists a vertex's
    blocks)."""
    tree = Graph()
    for component in decomposition.components:
        tree.add_node(("block", component.component_id))
    for v, blocks in decomposition.components_of.items():
        if decomposition.is_cut_vertex(v):
            for b in blocks:
                tree.add_edge(("cut", v), ("block", b))
    return tree


class TestBlockCutTree:
    def test_is_tree_for_families(self):
        for g in (path_graph(9), theta_graph(3, 4), caterpillar(5, 3),
                  random_planar(30, 45, seed=8)):
            t = block_cut_tree(biconnected_components(g))
            assert t.is_connected()
            assert t.num_edges == t.num_nodes - 1

    def test_structure_two_triangles(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        decomposition = biconnected_components(g)
        t = block_cut_tree(decomposition)
        assert sum(kind == "block" for kind, _ in t.nodes()) == 2
        assert [node for node in t.nodes() if node[0] == "cut"] == [("cut", 2)]
        assert len(decomposition.components_of[2]) == 2
        assert len(decomposition.components_of[0]) == 1
