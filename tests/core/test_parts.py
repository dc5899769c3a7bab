"""Parts, stub embeddings, and the Definition 3.1 safety audit."""

import pytest

from repro.core import NonPlanarNetworkError, PartEmbedding, PartitionState, fresh_part
from repro.core.parts import (
    augment_with_stubs,
    embed_with_boundary,
    graph_depth,
    is_stub,
    stub_node,
)
from repro.planar import Graph
from repro.planar.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)


class TestStubs:
    def test_stub_roundtrip(self):
        s = stub_node((1, 2))
        assert is_stub(s)
        assert s == ("stub", 1, 2)

    def test_augment(self):
        g = path_graph(3)
        aug = augment_with_stubs(g, [(0, 99), (2, 98)])
        assert aug.num_nodes == 5
        assert aug.has_edge(0, ("stub", 0, 99))

    def test_augment_requires_inside_endpoint(self):
        with pytest.raises(ValueError):
            augment_with_stubs(path_graph(2), [(5, 6)])


class TestEmbedWithBoundary:
    def test_boundary_cofacial(self):
        g = grid_graph(3, 3)
        boundary = [(0, 100), (2, 101), (8, 102), (6, 103)]
        rot = embed_with_boundary(g, boundary)
        from repro.planar import check_embedding_with_boundary

        face = check_embedding_with_boundary(rot, [stub_node(h) for h in boundary])
        assert face

    def test_impossible_boundary_raises(self):
        # Grid center + opposite corners cannot be co-facial.
        g = grid_graph(5, 5)
        boundary = [(12, 100), (0, 101), (24, 102), (4, 103), (20, 104)]
        with pytest.raises(NonPlanarNetworkError):
            embed_with_boundary(g, boundary)

    def test_nonplanar_part_raises(self):
        with pytest.raises(NonPlanarNetworkError):
            embed_with_boundary(complete_graph(5), [])

    def test_no_boundary_is_plain_embedding(self):
        rot = embed_with_boundary(cycle_graph(6), [])
        assert rot.genus() == 0


class TestPartEmbedding:
    def test_fresh_part_basics(self):
        g = path_graph(4)
        part = fresh_part(g, [(0, 50), (3, 51)])
        assert part.vertices == {0, 1, 2, 3}
        assert part.is_trivial  # paths are trees
        assert part.attachments() == [0, 3]

    def test_nontrivial_part(self):
        part = fresh_part(cycle_graph(4), [])
        assert not part.is_trivial

    def test_disconnected_part_rejected(self):
        g = Graph(edges=[(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            fresh_part(g, [])

    def test_boundary_order_is_permutation(self):
        g = star_graph(4)
        boundary = [(1, 90), (2, 91), (3, 92), (4, 93)]
        part = fresh_part(g, boundary)
        order = part.boundary_order()
        assert sorted(order) == sorted(boundary)

    def test_boundary_order_empty(self):
        part = fresh_part(path_graph(3), [])
        assert part.boundary_order() == []

    def test_internal_rotations_resolve_stubs(self):
        part = fresh_part(path_graph(2), [(0, 7)])
        rot = part.internal_rotations()
        assert set(rot[0]) == {1, 7}

    def test_graph_depth(self):
        assert graph_depth(path_graph(10), 0) == 9
        assert graph_depth(cycle_graph(10), 0) == 5
        assert graph_depth(Graph(nodes=[1])) == 0


class TestPartitionSafety:
    def test_safe_partition(self):
        g = grid_graph(3, 3)
        rows = [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}]
        parts = []
        for row in rows:
            sub = g.subgraph(row)
            boundary = [
                (u, x) for u in row for x in g.neighbors(u) if x not in row
            ]
            parts.append(fresh_part(sub, boundary))
        state = PartitionState(network=g, parts=parts)
        assert state.is_partition()
        assert state.is_safe()

    def test_trivial_parts_exempt(self):
        # A tree part may disconnect the remainder without violating safety.
        g = path_graph(5)
        middle = fresh_part(g.subgraph({2}), [(2, 1), (2, 3)])
        left = fresh_part(g.subgraph({0, 1}), [(1, 2)])
        right = fresh_part(g.subgraph({3, 4}), [(3, 2)])
        state = PartitionState(network=g, parts=[left, middle, right])
        assert state.is_safe()  # all parts are trees

    def test_unsafe_partition_detected(self):
        # A non-trivial (cyclic) separator part whose removal splits the
        # remainder into two islands violates Definition 3.1.
        g = Graph(
            edges=[
                (2, 3), (3, 4), (2, 4),  # middle triangle (non-trivial part)
                (0, 1), (1, 2),          # left island, attached at 2
                (4, 5), (5, 6),          # right island, attached at 4
            ]
        )
        triangle = {2, 3, 4}
        part = fresh_part(
            g.subgraph(triangle), [(2, 1), (4, 5)]
        )
        left = fresh_part(g.subgraph({0, 1}), [(1, 2)])
        right = fresh_part(g.subgraph({5, 6}), [(5, 4)])
        state = PartitionState(network=g, parts=[part, left, right])
        assert state.is_partition()
        assert not state.is_safe()
        assert state.violating_parts() == [part.part_id]
