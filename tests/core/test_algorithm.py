"""The top-level driver: options, result surface, edge cases."""

import pytest

from repro import DistributedPlanarEmbedding, distributed_planar_embedding
from repro.planar import Graph, verify_planar_embedding
from repro.planar.generators import grid_graph, path_graph


class TestDriverSurface:
    def test_result_fields(self):
        g = grid_graph(4, 4)
        result = distributed_planar_embedding(g)
        assert result.graph is g
        assert result.leader == 15  # max ID
        assert result.bfs_depth >= 1
        assert result.rounds == result.metrics.rounds
        assert result.recursion_depth >= 1
        assert result.rotation_system.genus() == 0

    def test_single_vertex(self):
        result = distributed_planar_embedding(Graph(nodes=[9]))
        assert result.rotation == {9: ()}
        assert result.rounds == 0

    def test_two_vertices(self):
        result = distributed_planar_embedding(path_graph(2))
        assert result.rotation == {0: (1,), 1: (0,)}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distributed_planar_embedding(Graph())

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            distributed_planar_embedding(Graph(edges=[(0, 1), (5, 6)]))

    def test_bandwidth_knob_changes_charges(self):
        g = grid_graph(6, 6)
        tight = DistributedPlanarEmbedding(g, bandwidth_words=1).run()
        loose = DistributedPlanarEmbedding(g, bandwidth_words=8).run()
        assert loose.rounds <= tight.rounds

    def test_deterministic(self):
        g = grid_graph(5, 5)
        r1 = distributed_planar_embedding(g)
        r2 = distributed_planar_embedding(g)
        assert r1.rotation == r2.rotation
        assert r1.rounds == r2.rounds

    def test_output_covers_exactly_the_edges(self):
        g = grid_graph(4, 5)
        result = distributed_planar_embedding(g)
        for v in g.nodes():
            assert sorted(result.rotation[v]) == sorted(g.neighbors(v))


class TestSplitterStrategies:
    def test_root_strategy_still_correct(self):
        g = grid_graph(6, 6)
        result = DistributedPlanarEmbedding(g, splitter_strategy="root").run()
        verify_planar_embedding(g, result.rotation)

    def test_unknown_strategy(self):
        # Rejected at construction, before any round runs.
        g = grid_graph(3, 3)
        with pytest.raises(ValueError, match="'balanced' or 'root'"):
            DistributedPlanarEmbedding(g, splitter_strategy="???")

    def test_unknown_strategy_on_single_node_network(self):
        # A one-node run never reaches the recursion, so the value must
        # be checked up front.
        with pytest.raises(ValueError, match="'balanced' or 'root'"):
            DistributedPlanarEmbedding(Graph(nodes=[1]), splitter_strategy="bogus")
