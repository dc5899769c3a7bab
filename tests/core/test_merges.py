"""The merge engine: pairwise/star/coordinated merges and their charges."""

import pytest

from repro.congest import RoundMetrics
from repro.core import (
    NonPlanarNetworkError,
    charge_merge_stage,
    charge_path_coordinated_merge,
    fresh_part,
    merge_parts,
)
from repro.core.parts import stub_node
from repro.planar import Graph, check_embedding_with_boundary
from repro.planar.generators import cycle_graph, grid_graph, path_graph


def make_grid_halves():
    """A 4x4 grid split into two 8-vertex halves."""
    g = grid_graph(4, 4)
    top = {0, 1, 2, 3, 4, 5, 6, 7}
    bottom = set(g.nodes()) - top
    parts = []
    for nodes in (top, bottom):
        sub = g.subgraph(nodes)
        boundary = [(u, x) for u in sorted(nodes) for x in g.neighbors(u) if x not in nodes]
        parts.append(fresh_part(sub, boundary))
    return g, parts


class TestPairwise:
    def test_merge_two_halves(self):
        g, parts = make_grid_halves()
        result = merge_parts(parts)
        merged = result.part
        assert merged.vertices == set(g.nodes())
        assert merged.boundary == []
        assert merged.rotation.genus() == 0

    def test_merged_graph_has_connecting_edges(self):
        g, parts = make_grid_halves()
        merged = merge_parts(parts).part
        for c in range(4):
            assert merged.graph.has_edge(4 + c, 8 + c)

    def test_single_part_identity(self):
        part = fresh_part(path_graph(3), [(0, 9)])
        result = merge_parts([part])
        assert result.part is part

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_parts([])

    def test_disconnected_parts_rejected(self):
        a = fresh_part(path_graph(2), [(0, 77)])
        b = fresh_part(Graph(edges=[(10, 11)]), [(10, 78)])
        with pytest.raises(ValueError):
            merge_parts([a, b])

    def test_overlapping_parts_rejected(self):
        a = fresh_part(path_graph(3), [])
        b = fresh_part(path_graph(3), [])
        with pytest.raises(ValueError):
            merge_parts([a, b])


class TestBoundaryHandling:
    def test_external_edges_survive(self):
        g = grid_graph(2, 4)  # nodes 0..7
        left = {0, 1, 4, 5}
        right = {2, 3, 6, 7}
        parts = []
        for nodes in (left, right):
            sub = g.subgraph(nodes)
            boundary = [
                (u, x) for u in sorted(nodes) for x in g.neighbors(u) if x not in nodes
            ]
            # add external half-edges to the wider world
            boundary += [(u, 1000 + u) for u in sorted(nodes)[:1]]
            parts.append(fresh_part(sub, boundary))
        result = merge_parts(parts)
        merged = result.part
        assert set(merged.boundary) == {(0, 1000), (2, 1002)}
        stubs = [stub_node(h) for h in merged.boundary]
        check_embedding_with_boundary(merged.rotation, stubs)

    def test_nonplanar_merge_detected(self):
        # Two halves of K5: merging them must fail.
        from repro.planar.generators import complete_graph

        g = complete_graph(5)
        a_nodes, b_nodes = {0, 1}, {2, 3, 4}
        parts = []
        for nodes in (a_nodes, b_nodes):
            sub = g.subgraph(nodes)
            boundary = [
                (u, x) for u in sorted(nodes) for x in g.neighbors(u) if x not in nodes
            ]
            parts.append(fresh_part(sub, boundary))
        with pytest.raises(NonPlanarNetworkError):
            merge_parts(parts)


class TestChargers:
    def make_result(self):
        g, parts = make_grid_halves()
        return merge_parts(parts)

    def test_pairwise_charge(self):
        # One pairwise merge is a stage of one, charged under the caller's phase.
        m = RoundMetrics()
        result = self.make_result()
        rounds = charge_merge_stage(m, [result], "merge:pairwise")
        assert rounds > 0
        assert m.rounds == rounds
        assert "merge:pairwise" in m.phase_rounds

    def test_star_charge(self):
        # A stage of one real merge, as the V-star and chain stages charge it.
        m = RoundMetrics()
        result = self.make_result()
        rounds = charge_merge_stage(m, [result], "merge:star")
        assert rounds > 0
        assert m.rounds == rounds
        assert m.phase_rounds["merge:star"] == rounds
        assert m.total_words == result.total_up + result.total_down

    def test_path_charge_scales_with_path(self):
        result = self.make_result()
        m1, m2 = RoundMetrics(), RoundMetrics()
        r_short = charge_path_coordinated_merge(m1, result, path_length=2)
        r_long = charge_path_coordinated_merge(m2, result, path_length=50)
        assert r_long > r_short

    def test_measured_words_present(self):
        result = self.make_result()
        assert result.total_up > 0
        assert result.total_down > 0
        assert set(result.up_words) == set(result.part_depths)

    def test_bandwidth_reduces_rounds(self):
        result = self.make_result()
        m1, m2 = RoundMetrics(), RoundMetrics()
        r1 = charge_merge_stage(m1, [result], "merge:vertex", bandwidth=1)
        r8 = charge_merge_stage(m2, [result], "merge:vertex", bandwidth=8)
        assert r8 <= r1


class TestThreeWay:
    def test_star_of_three_cycle_parts(self):
        # Three arcs of a C12 merge back into the full cycle.
        g = cycle_graph(12)
        arcs = [set(range(0, 4)), set(range(4, 8)), set(range(8, 12))]
        parts = []
        for nodes in arcs:
            sub = g.subgraph(nodes)
            boundary = [
                (u, x) for u in sorted(nodes) for x in g.neighbors(u) if x not in nodes
            ]
            parts.append(fresh_part(sub, boundary))
        result = merge_parts(parts)
        assert result.part.boundary == []
        assert result.part.rotation.genus() == 0
        assert result.part.graph.num_edges == 12
