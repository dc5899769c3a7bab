"""Rotation systems (combinatorial embeddings) and their face structure.

A *combinatorial planar embedding* — the output format of the paper's
Theorem 1.1 — is a rotation system: for each vertex, a cyclic (clockwise)
order of its incident edges.  By Edmonds' theorem [Edm60] a rotation system
determines the faces of a drawing on an orientable surface, and the drawing
is planar (genus zero) exactly when Euler's formula ``V - E + F = 2`` holds
for a connected graph.  This module implements that machinery, which both
the algorithm's internal merges and the end-to-end verifier rely on.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .graph import Graph, NodeId

__all__ = [
    "RotationSystem",
    "RotationError",
    "trace_faces",
    "euler_genus",
]


class RotationError(ValueError):
    """Raised when a rotation system is inconsistent with its graph."""


class RotationSystem:
    """A cyclic order of incident edges at every vertex of a graph.

    The order stored at vertex ``v`` is read as the *clockwise* order of
    the edges around ``v`` in a drawing.  The class is immutable-ish by
    convention: algorithms build a fresh instance rather than mutating.
    """

    __slots__ = ("graph", "_order", "_position")

    def __init__(self, graph: Graph, order: Mapping[NodeId, Sequence[NodeId]]) -> None:
        self.graph = graph
        self._order: dict[NodeId, tuple[NodeId, ...]] = {}
        # Per-vertex neighbor->index maps, built lazily on the first
        # next_after/prev_before query at that vertex: many rotation
        # systems are constructed only to be merged or snapshotted and
        # never traced.
        self._position: dict[NodeId, dict[NodeId, int]] = {}
        adj = graph._adj
        _order = self._order
        for v, neighbors in adj.items():
            if v not in order:
                raise RotationError(f"missing rotation for vertex {v!r}")
            ring = tuple(order[v])
            if len(ring) != len(neighbors) or set(ring) != neighbors.keys():
                raise RotationError(
                    f"rotation at {v!r} must be a permutation of its "
                    f"{len(neighbors)} neighbors; got {ring!r}"
                )
            _order[v] = ring
        if len(order) != len(adj):
            extra = set(order) - adj.keys()
            if extra:
                raise RotationError(
                    f"rotations for unknown vertices: {sorted(extra, key=repr)}"
                )

    @classmethod
    def trusted(
        cls, graph: Graph, order: Mapping[NodeId, Sequence[NodeId]]
    ) -> "RotationSystem":
        """Construct without permutation validation.

        For orders that are permutations of the neighbor sets *by
        construction* — the LR kernel's output, mirroring an existing
        rotation, filtering a vertex out of one — where re-validating
        every ring is pure overhead.  ``order`` must cover exactly the
        graph's vertices and its values must be tuples.
        """
        self = cls.__new__(cls)
        self.graph = graph
        self._order = dict(order)
        self._position = {}
        return self

    # -- basic access ------------------------------------------------------

    def order(self, v: NodeId) -> tuple[NodeId, ...]:
        """The clockwise neighbor order around ``v``."""
        return self._order[v]

    def as_dict(self) -> dict[NodeId, tuple[NodeId, ...]]:
        """A plain-dict snapshot of all rotations."""
        return dict(self._order)

    def _pos(self, v: NodeId) -> dict[NodeId, int]:
        pos = self._position.get(v)
        if pos is None:
            pos = self._position[v] = {u: i for i, u in enumerate(self._order[v])}
        return pos

    def next_after(self, v: NodeId, u: NodeId) -> NodeId:
        """The neighbor clockwise-after ``u`` around ``v``."""
        ring = self._order[v]
        i = self._pos(v)[u]
        return ring[(i + 1) % len(ring)]

    def prev_before(self, v: NodeId, u: NodeId) -> NodeId:
        """The neighbor counter-clockwise-before ``u`` around ``v``."""
        ring = self._order[v]
        i = self._pos(v)[u]
        return ring[(i - 1) % len(ring)]

    # -- face machinery ------------------------------------------------------

    def faces(self) -> list[list[tuple[NodeId, NodeId]]]:
        """All faces as lists of directed edges (see :func:`trace_faces`)."""
        return trace_faces(self)

    def num_faces(self) -> int:
        return len(self.faces())

    def genus(self) -> int:
        """The Euler genus implied by this rotation system.

        Zero means the rotation system corresponds to a planar (sphere)
        drawing.  Only meaningful for connected graphs; disconnected
        graphs are handled component-wise by :func:`euler_genus`.
        """
        return euler_genus(self)

    def is_planar_embedding(self) -> bool:
        """True iff this rotation system describes a genus-0 drawing."""
        return euler_genus(self) == 0

    def face_of(self, u: NodeId, v: NodeId) -> list[tuple[NodeId, NodeId]]:
        """The face walk containing the directed edge ``(u, v)``."""
        if not self.graph.has_edge(u, v):
            raise RotationError(f"no such edge: {u!r}-{v!r}")
        walk = [(u, v)]
        order, pos = self._order, self._pos
        a, b = u, v
        while True:
            # Next dart of the face: arrive at b, leave along the edge
            # clockwise-after the reversal (b -> a).
            ring = order[b]
            a, b = b, ring[(pos(b)[a] + 1) % len(ring)]
            if a == u and b == v:
                return walk
            walk.append((a, b))

    def mirrored(self) -> "RotationSystem":
        """The mirror image (every rotation reversed).

        Mirroring maps a planar rotation system to a planar one; it is the
        global 'flip' of the whole drawing.
        """
        return RotationSystem.trusted(
            self.graph, {v: tuple(reversed(ring)) for v, ring in self._order.items()}
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RotationSystem(n={self.graph.num_nodes}, m={self.graph.num_edges})"


def trace_faces(rotation: RotationSystem) -> list[list[tuple[NodeId, NodeId]]]:
    """Decompose all darts (directed edges) of a rotation system into faces.

    Uses the standard face-tracing rule: the dart following ``(u, v)`` in
    its face is ``(v, w)`` where ``w`` is the neighbor clockwise-after
    ``u`` in the rotation at ``v``.  Every dart belongs to exactly one
    face, so the walks returned partition the 2m darts.
    """
    graph = rotation.graph
    darts: list[tuple[NodeId, NodeId]] = []
    for u, v in graph.edges():
        darts.append((u, v))
        darts.append((v, u))
    visited: set[tuple[NodeId, NodeId]] = set()
    faces: list[list[tuple[NodeId, NodeId]]] = []
    order = rotation._order
    pos = rotation._pos
    for start in darts:  # deterministic: graph insertion order
        if start in visited:
            continue
        # Inline face_of: next dart after (u, v) leaves v along the edge
        # clockwise-after the reversal (v -> u).
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


def euler_genus(rotation: RotationSystem) -> int:
    """The (orientable) Euler genus of the surface a rotation system defines.

    For a graph with ``c`` connected components the generalized Euler
    formula reads ``V - E + F = 2c - 2g`` so ``g = c - (V - E + F) / 2``.
    The result is always a non-negative integer for a valid rotation
    system; ``0`` means planar.
    """
    graph = rotation.graph
    if graph.num_nodes == 0:
        return 0
    v = graph.num_nodes
    e = graph.num_edges
    # Each edgeless component is a bare sphere contributing one face that
    # dart-tracing cannot see.
    isolated = sum(1 for node in graph.nodes() if graph.degree(node) == 0)
    f = len(trace_faces(rotation)) + isolated
    c = len(graph.connected_components())
    doubled = 2 * c - (v - e + f)
    if doubled < 0 or doubled % 2 != 0:
        raise RotationError(
            f"inconsistent rotation system: V={v} E={e} F={f} C={c}"
        )
    return doubled // 2


def rotation_from_positions(
    graph: Graph, positions: Mapping[NodeId, tuple[float, float]]
) -> RotationSystem:
    """Build the rotation system induced by straight-line coordinates.

    Useful for geometric generators (grids, triangulations): the clockwise
    order of edges at ``v`` is the clockwise angular order of the neighbor
    coordinates around ``v``'s coordinate.
    """
    import math

    order: dict[NodeId, tuple[NodeId, ...]] = {}
    for v in graph.nodes():
        x0, y0 = positions[v]

        def angle(u: NodeId) -> float:
            x1, y1 = positions[u]
            return -math.atan2(y1 - y0, x1 - x0)  # negated => clockwise

        order[v] = tuple(sorted(graph.neighbors(v), key=angle))
    return RotationSystem(graph, order)


def contracted_rotation(
    rotation: RotationSystem, nodes: Iterable[NodeId]
) -> list[tuple[NodeId, NodeId]]:
    """Cyclic order of the darts leaving a connected node set ``S``.

    This is the combinatorial contraction of Figure 1(b) in the paper:
    contracting a connected subgraph of a planar embedding to a single
    vertex yields a planar embedding whose rotation at the new vertex is
    exactly the boundary walk computed here.  The walk rule: from the
    out-dart ``(u, x)``, scan clockwise at ``u`` after ``x``; on meeting
    an internal edge ``(u, y)``, hop to ``y`` and continue scanning
    clockwise after ``u`` — splicing rotations along internal edges until
    the next out-dart appears.

    Returns the out-darts ``(u, x)`` (``u`` in ``S``, ``x`` outside) in
    clockwise cyclic order around the contracted set.  ``S`` must induce
    a connected subgraph; the result is empty when no edge leaves ``S``.
    """
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
    order = rotation._order
    pos = rotation._pos
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
        if len(walk) > total_out:  # pragma: no cover - invariant
            raise RotationError("boundary walk did not close: set not connected?")
    if len(walk) != total_out:
        raise RotationError(
            f"boundary walk visited {len(walk)} of {total_out} out-darts; "
            "is the node set connected?"
        )
    return walk

