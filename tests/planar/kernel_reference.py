"""Test-local references for the graph and face-walk kernels.

These are the kernels as they were before they read rings and adjacency
in place:

* :func:`edge_id` tries ``u < v`` and lets :func:`~repro.planar.graph.precedes`
  decide every pair that raises ``TypeError``, an int rank meeting a
  tuple pseudo-vertex included;
* :func:`add_graph` adds a graph's nodes, then each edge of
  :meth:`~repro.planar.graph.Graph.edges` through ``add_edge``, which is
  how a merge built its union;
* :func:`face_of`, :func:`trace_faces` and :func:`contracted_rotation`
  look every neighbour up in a position map, built for each vertex the
  walk reaches, whatever its degree.

``test_kernel_differential.py`` holds the shipped kernels to them: equal
results, dict and list orders included.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.planar.graph import EdgeId, Graph, GraphError, NodeId, precedes
from repro.planar.rotation import RotationError, RotationSystem


def edge_id(u: NodeId, v: NodeId) -> EdgeId:
    """The canonical ID of the edge ``{u, v}``: natural order, else ``precedes``."""
    if u == v:
        raise GraphError(f"self-loops are not allowed: {u!r}")
    try:
        return (u, v) if u < v else (v, u)
    except TypeError:
        return (u, v) if precedes(u, v) else (v, u)


def add_graph(graph: Graph, other: Graph) -> None:
    """Add ``other``'s nodes, then its edges one ``add_edge`` at a time."""
    for v in other.nodes():
        graph.add_node(v)
    for u, v in other.edges():
        graph.add_edge(u, v)


class _Positions:
    """A neighbour -> index map per vertex, built on first use."""

    def __init__(self, rotation: RotationSystem) -> None:
        self.order = rotation._order
        self.maps: dict = {}

    def __call__(self, v: NodeId) -> dict:
        pos = self.maps.get(v)
        if pos is None:
            pos = self.maps[v] = {u: i for i, u in enumerate(self.order[v])}
        return pos


def face_of(rotation: RotationSystem, u: NodeId, v: NodeId) -> list[tuple[NodeId, NodeId]]:
    """The face walk containing the directed edge ``(u, v)``."""
    if not rotation.graph.has_edge(u, v):
        raise RotationError(f"no such edge: {u!r}-{v!r}")
    walk = [(u, v)]
    order, pos = rotation._order, _Positions(rotation)
    a, b = u, v
    while True:
        ring = order[b]
        a, b = b, ring[(pos(b)[a] + 1) % len(ring)]
        if a == u and b == v:
            return walk
        walk.append((a, b))


def trace_faces(rotation: RotationSystem) -> list[list[tuple[NodeId, NodeId]]]:
    """Every face of ``rotation``, started from darts in edge order."""
    darts: list[tuple[NodeId, NodeId]] = []
    for u, v in rotation.graph.edges():
        darts.append((u, v))
        darts.append((v, u))
    visited: set[tuple[NodeId, NodeId]] = set()
    faces: list[list[tuple[NodeId, NodeId]]] = []
    order, pos = rotation._order, _Positions(rotation)
    for start in darts:
        if start in visited:
            continue
        walk = [start]
        u, v = start
        while True:
            ring = order[v]
            u, v = v, ring[(pos(v)[u] + 1) % len(ring)]
            if (u, v) == start:
                break
            walk.append((u, v))
        visited.update(walk)
        faces.append(walk)
    return faces


def contracted_rotation(
    rotation: RotationSystem, nodes: Iterable[NodeId]
) -> list[tuple[NodeId, NodeId]]:
    """Cyclic order of the darts leaving the connected node set ``nodes``."""
    inside = set(nodes)
    graph = rotation.graph
    start = None
    total_out = 0
    for u in sorted(inside, key=repr):
        for x in graph.neighbors(u):
            if x not in inside:
                total_out += 1
                if start is None:
                    start = (u, x)
    if start is None:
        return []
    walk = [start]
    u, x = start
    order, pos = rotation._order, _Positions(rotation)
    while True:
        ring = order[u]
        y = ring[(pos(u)[x] + 1) % len(ring)]
        while y in inside:
            ring = order[y]
            u, y = y, ring[(pos(y)[u] + 1) % len(ring)]
        u, x = u, y
        if (u, x) == start:
            break
        walk.append((u, x))
        if len(walk) > total_out:
            raise RotationError("boundary walk did not close: set not connected?")
    if len(walk) != total_out:
        raise RotationError(
            f"boundary walk visited {len(walk)} of {total_out} out-darts; "
            "is the node set connected?"
        )
    return walk
