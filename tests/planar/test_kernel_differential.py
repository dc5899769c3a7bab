"""The merge-path kernels against their test-local references.

``biconnected_reference.py`` keeps the copying block DFS and
``kernel_reference.py`` the try/except ``edge_id``, the ``add_edge``
union and the position-map face walks; ``tests/core/merge_reference.py``
keeps the merge union that added every part edge through its edge ID.
Inputs mix int ranks with the pipeline's tuple pseudo-vertices
(``("copy", c, pid, k)``, ``("stub", u, x)``, ``("hub", pid, key)``),
whose comparison with an int raises, and carry one vertex of high degree,
so that rings on both sides of the face walk's scan limit occur.
Every result must be equal, dict key and list orders included.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import IntEnum
from types import SimpleNamespace

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.core.merges import _union_graph_and_boundary
from repro.planar.biconnected import biconnected_components
from repro.planar.graph import Graph, GraphError, edge_id
from repro.planar.rotation import (
    _SCAN_MAX,
    RotationError,
    RotationSystem,
    contracted_rotation,
    trace_faces,
)
from tests.core import merge_reference
from tests.planar import biconnected_reference as ref_bic
from tests.planar import kernel_reference as ref

ranks = st.integers(0, 40)
part_ids = st.one_of(st.integers(0, 6), st.tuples(st.integers(0, 3), st.integers(0, 3)))
copies = st.tuples(st.just("copy"), ranks, part_ids, st.integers(0, 2))
stubs = st.tuples(st.just("stub"), ranks, st.one_of(ranks, copies))
hubs = st.tuples(st.just("hub"), part_ids, ranks.map(lambda k: repr((k, k + 1))))
node_ids = st.one_of(ranks, ranks, copies, stubs, hubs)


@st.composite
def mixed_graphs(draw, max_nodes: int = 24) -> Graph:
    """A graph on mixed IDs, nodes and edges in drawn order, with one
    centre joined to up to ``2 * _SCAN_MAX + 4`` others."""
    nodes = draw(st.lists(node_ids, min_size=1, max_size=max_nodes, unique=True))
    n = len(nodes)
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=3 * n))
    centre = draw(index)
    spokes = draw(st.lists(index, max_size=2 * _SCAN_MAX + 4, unique=True))
    pairs += [(centre, k) for k in spokes]
    draw(st.randoms(use_true_random=False)).shuffle(pairs)
    g = Graph(nodes=nodes)
    for i, j in pairs:
        if i != j:
            g.add_edge(nodes[i], nodes[j])
    return g


def adjacency(graph: Graph) -> list:
    """Nodes and neighbour lists, in order."""
    return [(v, list(nbrs)) for v, nbrs in graph._adj.items()]


def outcome(f, *args):
    """``f(*args)``, or the type and message of what it raised."""
    try:
        return f(*args)
    except (RotationError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


# -- the block decomposition -------------------------------------------------


def decomposition_snapshot(d) -> tuple:
    """Every field of a decomposition, iteration orders included."""
    return (
        [(c.component_id, list(c.edges), list(c.vertices)) for c in d.components],
        list(d.components_of.items()),
        [(cid, c.component_id, list(c.vertices)) for cid, c in d.component_by_id.items()],
        list(d.component_of_edge.items()),
    )


@settings(max_examples=300, deadline=None)
@given(mixed_graphs())
def test_biconnected_components_match_reference(graph):
    new, old = biconnected_components(graph), ref_bic.biconnected_components(graph)
    assert decomposition_snapshot(new) == decomposition_snapshot(old)
    assert new.components == old.components


def test_biconnected_reference_covers_bridges_cut_vertices_and_mixed_blocks():
    # Two triangles at a cut vertex, one of them through pseudo-vertices,
    # and a pendant bridge to a stub.
    stub, hub = ("stub", 2, 9), ("hub", (0, 1), "(3, 4)")
    g = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, hub), (hub, ("copy", 3, 1, 0)),
                     (("copy", 3, 1, 0), 2), (0, stub)])
    new = biconnected_components(g)
    assert decomposition_snapshot(new) == decomposition_snapshot(ref_bic.biconnected_components(g))
    assert sorted(map(len, new.components_of.values())) == [1, 1, 1, 1, 2, 2]
    assert sum(c.is_bridge for c in new.components) == 1


# -- face walks -----------------------------------------------------------------


@st.composite
def rotations(draw) -> RotationSystem:
    """A rotation system (any genus) on a drawn mixed graph."""
    graph = draw(mixed_graphs())
    rng = draw(st.randoms(use_true_random=False))
    order = {}
    for v, nbrs in graph._adj.items():
        ring = list(nbrs)
        rng.shuffle(ring)
        order[v] = tuple(ring)
    return RotationSystem(graph, order)


def _ball(graph: Graph, start, size: int) -> list:
    """The first ``size`` nodes a BFS from ``start`` reaches (connected)."""
    seen, queue = [start], [start]
    for v in queue:
        for u in graph._adj[v]:
            if u not in seen and len(seen) < size:
                seen.append(u)
                queue.append(u)
    return seen


@settings(max_examples=300, deadline=None)
@given(rotations(), st.randoms(use_true_random=False))
def test_face_walks_match_reference(rotation, rng):
    graph = rotation.graph
    assert trace_faces(rotation) == ref.trace_faces(rotation)
    darts = [(u, v) for u, nbrs in graph._adj.items() for v in nbrs]
    for u, v in rng.sample(darts, min(len(darts), 12)):
        assert rotation.face_of(u, v) == ref.face_of(rotation, u, v)
    for _ in range(4):
        nodes = _ball(graph, rng.choice(graph.nodes()), rng.randint(1, graph.num_nodes))
        assert outcome(contracted_rotation, rotation, nodes) == outcome(
            ref.contracted_rotation, rotation, nodes
        )


def test_face_walk_inputs_cover_both_sides_of_the_scan_limit():
    # Some drawn rotation has a ring just at the limit and one just past
    # it at the same vertex kind (the centre's spokes set its degree).
    for degree in (_SCAN_MAX, _SCAN_MAX + 1):
        find(rotations(), lambda r, d=degree: d in map(len, r._order.values()))


# -- edge IDs -------------------------------------------------------------------


Pair = namedtuple("Pair", "a b")


class Colour(IntEnum):
    RED = 1
    GREEN = 5


plain_tuples = st.tuples(st.sampled_from(["copy", "stub", "hub", "v"]), st.one_of(ranks, st.text(max_size=2)))
edge_values = st.one_of(
    ranks,
    st.booleans(),
    st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    plain_tuples,
    plain_tuples.map(lambda t: Pair(*t)),
    st.sampled_from(list(Colour)),
    copies,
    stubs,
)


@settings(max_examples=1000, deadline=None)
@given(edge_values, edge_values)
def test_edge_id_matches_reference(u, v):
    try:
        expected = ref.edge_id(u, v)
    except GraphError as exc:  # equal endpoints (1 and True, 1 and 1.0 too)
        with pytest.raises(GraphError, match=re.escape(str(exc))):
            edge_id(u, v)
        return
    got = edge_id(u, v)  # the same objects in the same order (nan is not nan)
    assert got[0] is expected[0] and got[1] is expected[1]


@pytest.mark.parametrize(
    "u, v",
    [
        (3, ("stub", 3, 4)),
        (("copy", 2, (0, 1), 0), 7),
        (3, Pair("stub", 1)),  # a namedtuple is no plain tuple: repr order
        (Pair("v", 1), ("v", 2)),  # but it compares with one naturally
        (True, ("hub", 1)),
        (Colour.GREEN, ("stub", 1, 2)),
        (2.5, ("copy", 1, 1, 0)),
        ("a", 1),
        (("copy", 5, 10, 0), ("copy", 5, ("hub", 1), 0)),
        (Colour.RED, 1),  # equal: a self-loop
    ],
)
def test_edge_id_matches_reference_on_mixed_kinds(u, v):
    assert outcome(edge_id, u, v) == outcome(ref.edge_id, u, v)
    assert outcome(edge_id, v, u) == outcome(ref.edge_id, v, u)


# -- the union ------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(mixed_graphs(), mixed_graphs())
def test_add_graph_matches_edge_by_edge_union(target, other):
    # The graphs may share nodes and edges, as a graph and its copy do.
    new, old = target.copy(), target.copy()
    new.add_graph(other)
    ref.add_graph(old, other)
    assert adjacency(new) == adjacency(old)


@settings(max_examples=200, deadline=None)
@given(mixed_graphs(max_nodes=30), st.randoms(use_true_random=False))
def test_merge_union_matches_reference(graph, rng):
    # Cut the graph into disjoint parts (any of them may be disconnected)
    # plus outside nodes; each part's half-edges go to the rest.
    nodes = graph.nodes()
    k = rng.randint(1, 4)
    label = {v: rng.randrange(k + 1) for v in nodes}  # k: outside every part
    parts = []
    for i in range(k):
        members = [v for v in nodes if label[v] == i]
        if not members:
            continue
        boundary = [(u, x) for u in members for x in graph._adj[u] if label[x] != i]
        rng.shuffle(boundary)
        parts.append(SimpleNamespace(part_id=(i,), graph=graph.subgraph(members),
                                     boundary=boundary))
    union, boundary, connecting, owner = _union_graph_and_boundary(parts)
    r_union, r_boundary, r_connecting, r_owner = merge_reference.union_graph_and_boundary(parts)
    assert adjacency(union) == adjacency(r_union)
    assert (boundary, connecting) == (r_boundary, r_connecting)
    assert list(owner.items()) == list(r_owner.items())


def test_union_orders_each_vertex_earlier_neighbours_first():
    # At 2: 0 and 1 come before it in node order, 3 after; its own
    # adjacency lists 3 first.
    part = Graph(nodes=[0, 1, 2, 3])
    for u, v in [(2, 3), (2, 1), (0, 2)]:
        part.add_edge(u, v)
    union = Graph()
    union.add_graph(part)
    assert list(union._adj[2]) == [0, 1, 3]
    reference = Graph()
    ref.add_graph(reference, part)
    assert adjacency(union) == adjacency(reference)
