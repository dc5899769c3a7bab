"""Pendant / two-terminal assembly and copy expansion."""

import networkx as nx
import pytest

from repro import distributed_planar_embedding
from repro.core import AssemblyError, assemble, expand_copies, fresh_part
from repro.core.assembly import is_copy
from repro.planar import Graph, RotationSystem
from repro.planar.generators import cycle_graph, grid_graph, path_graph, random_planar
from repro.planar.lr_planarity import planar_embedding


class TestInsertPendant:
    def test_pendant_path_into_grid(self):
        host = fresh_part(grid_graph(3, 3), [])
        pendant_graph = Graph(edges=[(100, 101), (101, 102)])
        pendant = fresh_part(pendant_graph, [(100, 4), (102, 4)])
        merged = assemble(host, [(4, pendant)])
        assert merged.graph.has_edge(100, 4)
        assert merged.graph.has_edge(102, 4)
        assert merged.rotation.genus() == 0
        assert 101 in merged.vertices

    def test_pendant_preserves_host_boundary(self):
        host = fresh_part(path_graph(4), [(0, 900)])
        pendant = fresh_part(Graph(nodes=[50]), [(50, 2)])
        merged = assemble(host, [(2, pendant)])
        assert merged.boundary == [(0, 900)]
        assert merged.rotation.genus() == 0

    def test_bad_anchor_rejected(self):
        host = fresh_part(path_graph(3), [])
        pendant = fresh_part(Graph(nodes=[50]), [(50, 77)])
        with pytest.raises(ValueError):
            assemble(host, [(77, pendant)])

    def test_pendant_with_wrong_targets_rejected(self):
        host = fresh_part(path_graph(3), [])
        pendant = fresh_part(Graph(nodes=[50]), [(50, 1), (50, 2)])
        with pytest.raises(ValueError):
            assemble(host, [(1, pendant)])


class TestInsertTwoTerminal:
    def test_cycle_part_between_grid_corners(self):
        host = fresh_part(grid_graph(2, 3), [])  # 0..5; 0 and 2 on outer face
        part_graph = Graph(edges=[(100, 101)])
        part = fresh_part(part_graph, [(100, 0), (101, 2)])
        merged = assemble(host, two_terminal=[(0, 2, part)])
        assert merged.graph.has_edge(100, 0)
        assert merged.graph.has_edge(101, 2)
        assert merged.rotation.genus() == 0

    def test_multiple_parallel_parts(self):
        host = fresh_part(path_graph(4), [])
        parts = []
        for k in range(3):
            base = 100 + 10 * k
            pg = Graph(edges=[(base, base + 1), (base + 1, base + 2)])
            parts.append((0, 3, fresh_part(pg, [(base, 0), (base + 2, 3)])))
        merged = assemble(host, two_terminal=parts)
        assert merged.rotation.genus() == 0
        assert merged.graph.num_nodes == 4 + 9

    def test_single_sided_part_is_rejected(self):
        host = fresh_part(path_graph(3), [])
        part = fresh_part(Graph(nodes=[50]), [(50, 1)])
        with pytest.raises(AssemblyError, match="does not reach both"):
            assemble(host, two_terminal=[(1, 2, part)])

    @pytest.mark.parametrize("n,seed", [(60, 1), (200, 7), (200, 14), (300, 1)])
    def test_splice_keeps_the_merged_stubs_on_one_face(self, n, seed):
        """On these inputs the first face holding both terminals separates
        the merged part's stubs; spliced there, the next merge could not
        read the part's boundary walk (a ``RotationError``)."""
        result = distributed_planar_embedding(random_planar(n, seed=seed))
        embedding = nx.PlanarEmbedding()
        embedding.set_data({v: list(ring) for v, ring in result.rotation.items()})
        embedding.check_structure()


class TestExpandCopies:
    def test_is_copy(self):
        assert is_copy(("copy", 5, 3, 1))
        assert not is_copy(("v", 5))
        assert not is_copy(5)

    def test_simple_contraction(self):
        # A path 0 - c - 2 where c is a copy of 1... build: star at copy.
        c = ("copy", 1, 7, 1)
        g = Graph(edges=[(0, c), (c, 1), (1, 2)])
        rot = planar_embedding(g)
        graph, order = expand_copies(g, rot.as_dict())
        assert c not in graph
        assert graph.has_edge(0, 1)
        assert RotationSystem(graph, order).genus() == 0

    def test_nested_copies(self):
        c1 = ("copy", 9, 1, 1)
        c2 = ("copy", 9, 2, 2)
        # c2 -> c1 -> 9 chain plus real vertices hanging off each copy
        g = Graph(edges=[(c2, c1), (c1, 9), (0, c2), (1, c1), (9, 2)])
        rot = planar_embedding(g)
        graph, order = expand_copies(g, rot.as_dict())
        assert all(not is_copy(v) for v in graph.nodes())
        assert graph.has_edge(0, 9)
        assert graph.has_edge(1, 9)
        assert RotationSystem(graph, order).genus() == 0

    def test_expansion_preserves_planarity_on_wheel(self):
        g = cycle_graph(6)
        c = ("copy", 0, 3, 1)
        # reroute 2's and 4's hypothetical edges to 0 through the copy
        g.add_edge(2, c)
        g.add_edge(4, c)
        g.add_edge(c, 0)
        rot = planar_embedding(g)
        graph, order = expand_copies(g, rot.as_dict())
        assert graph.has_edge(2, 0)
        assert graph.has_edge(4, 0)
        assert RotationSystem(graph, order).genus() == 0

    def test_no_copies_is_identity(self):
        g = grid_graph(3, 3)
        rot = planar_embedding(g)
        graph, order = expand_copies(g, rot.as_dict())
        assert graph.edges() == g.edges()
        assert order == rot.as_dict()
