"""Parts, partial embeddings, and the safety property (paper Section 3).

A *part* is a connected set of vertices that the algorithm has already
embedded internally.  Edges inside a part are *embedded*; edges with one
endpoint outside are *half-embedded* and represented by **stub** pseudo-
vertices in the part's stored rotation system, so that a part's embedding
fixes the clockwise position of every half-embedded edge around its
endpoint (the paper's output format needs exactly this).

The safety property (Definition 3.1) — removing any non-trivial part
leaves the remainder connected — guarantees that all of a part's stubs
lie on one face.  ``embed_with_boundary`` constructs embeddings with this
invariant (a lone vertex, whose stubs are co-facial in any order, gets
its ring in closed form, with no LR run), and :class:`PartitionState`
provides the auditable whole-partition safety check used by experiment
E6.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from ..planar.graph import Graph, NodeId
from ..planar.lr_planarity import NonPlanarGraphError, planar_embedding
from ..planar.rotation import RotationSystem, contracted_rotation

__all__ = [
    "HalfEdge",
    "NonPlanarNetworkError",
    "PartEmbedding",
    "PartitionState",
    "stub_node",
    "is_stub",
    "augment_with_stubs",
    "embed_with_boundary",
    "fresh_part",
    "graph_depth",
]

HalfEdge = tuple  # (inside endpoint, outside target)

# A part identifier is either a small int from the process-local
# allocator below (standalone construction, tests, the baseline) or a
# recursion-path tuple assigned by ``embed_subtree`` (the pipeline).
# Path tuples are globally unique *by position in the recursion tree*,
# so an ID is a function of the input, not of allocation history, and
# the tie-breaks that read it are reproducible.  Both kinds are
# mutually comparable within one merge (a merge only ever sees one
# kind), and every tie-break below (min/max/sorted) is kind-agnostic.
PartId = "int | tuple"

_PART_IDS = itertools.count(1)


def reset_part_ids() -> None:
    """Restart the part-ID allocator.

    Part IDs feed deterministic tie-breaks (merge representatives,
    pendant dedup, insertion orders), so a full algorithm run resets the
    allocator to make repeated runs in one process bit-identical.
    """
    global _PART_IDS
    _PART_IDS = itertools.count(1)


def next_part_id() -> int:
    """A fresh part ID from the process-local allocator."""
    return next(_PART_IDS)


class NonPlanarNetworkError(ValueError):
    """The distributed algorithm determined that the network is not planar."""


def stub_node(half_edge: HalfEdge) -> tuple:
    """The pseudo-vertex standing for a half-embedded edge in a rotation."""
    u, x = half_edge
    return ("stub", u, x)


def is_stub(node: NodeId) -> bool:
    return isinstance(node, tuple) and len(node) == 3 and node[0] == "stub"


def augment_with_stubs(graph: Graph, boundary: list[HalfEdge]) -> Graph:
    """The part graph plus one degree-1 stub vertex per half-embedded edge."""
    augmented = graph.copy()
    for half_edge in boundary:
        u, _ = half_edge
        if u not in graph:
            raise ValueError(f"half-edge endpoint {u!r} not in part")
        augmented.add_edge(u, stub_node(half_edge))
    return augmented


def embed_with_boundary(graph: Graph, boundary: list[HalfEdge]) -> RotationSystem:
    """Embed a part with all half-embedded edges on one common face.

    Construction: augment with stubs, add a virtual *rest* vertex
    adjacent to every stub (the contraction of the connected remainder,
    Figure 1(b)), embed with the LR kernel, and delete the rest vertex.
    Raises :class:`NonPlanarNetworkError` when impossible — which, under
    the safety property, happens only for non-planar inputs.

    A lone vertex needs no kernel: its stubs ``s_1 .. s_k`` are all on its
    one face whatever their order, and it gets the ring
    ``(s_1, s_k, s_(k-1), .., s_2)``, the one the LR kernel gives the
    stub star plus *rest*.
    """
    augmented = augment_with_stubs(graph, boundary)
    rest = ("rest",)
    stubs = [stub_node(h) for h in boundary]
    if graph.num_nodes == 1:
        (v,) = graph.nodes()
        order = {v: tuple(stubs[:1] + stubs[:0:-1])}
        order.update(dict.fromkeys(stubs, (v,)))
        return RotationSystem.trusted(augmented, order)
    if len(stubs) >= 2:
        augmented.add_node(rest)
        for s in stubs:
            augmented.add_edge(rest, s)
    try:
        rotation = planar_embedding(augmented)
    except NonPlanarGraphError as exc:
        raise NonPlanarNetworkError(
            "part cannot be embedded with its half-embedded edges on one face"
        ) from exc
    if len(stubs) >= 2:
        # Strip the rest vertex in place.  It was inserted last and each
        # rest-stub dart sits at the back of its stub's adjacency dict, so
        # deleting them leaves exactly the node and neighbor insertion
        # order a fresh stub augmentation would produce — without paying
        # for a second graph copy.
        adj = augmented._adj
        del adj[rest]
        for s in stubs:
            del adj[s][rest]
        order = {}
        for v in adj:
            order[v] = tuple(u for u in rotation.order(v) if u != rest)
        return RotationSystem.trusted(augmented, order)
    return rotation


def graph_depth(graph: Graph, root: NodeId | None = None) -> int:
    """Eccentricity of ``root`` (default: first node) — the depth proxy
    used to charge part-internal upcast/downcast rounds."""
    if graph.num_nodes == 0:
        return 0
    if root is None:
        root = graph.nodes()[0]
    dist = {root: 0}
    frontier = [root]
    ecc = 0
    while frontier:
        nxt = []
        for v in frontier:
            for u in graph.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    ecc = max(ecc, dist[u])
                    nxt.append(u)
        frontier = nxt
    return ecc


@dataclass
class PartEmbedding:
    """A part with its internal embedding and half-embedded edge stubs."""

    part_id: "int | tuple"
    graph: Graph
    boundary: list[HalfEdge]
    rotation: RotationSystem  # over graph + stubs
    depth: int

    @property
    def vertices(self) -> set[NodeId]:
        return set(self.graph.nodes())

    @property
    def is_trivial(self) -> bool:
        """Trivial parts induce trees (paper Section 3)."""
        return self.graph.num_edges == self.graph.num_nodes - 1

    def attachments(self) -> list[NodeId]:
        """Distinct part vertices incident to half-embedded edges, in order."""
        seen: set[NodeId] = set()
        result: list[NodeId] = []
        for u, _ in self.boundary:
            if u not in seen:
                seen.add(u)
                result.append(u)
        return result

    def boundary_order(self) -> list[HalfEdge]:
        """The part's half-embedded edges in clockwise order around it.

        Read off the stored embedding via the boundary walk
        (:func:`repro.planar.rotation.contracted_rotation`).
        """
        if not self.boundary:
            return []
        walk = contracted_rotation(self.rotation, self.vertices)
        order = []
        for u, s in walk:
            if not is_stub(s):  # pragma: no cover - rotation only has stubs outside
                raise AssertionError(f"non-stub out-dart {u!r}->{s!r}")
            order.append((s[1], s[2]))
        return order

    def outer_face(self) -> list[tuple[NodeId, NodeId]]:
        """The face of the rotation through the first half-edge's stub, as
        darts: the face holding every stub when they are co-facial."""
        if not self.boundary:
            return []
        return self.rotation.face_of(self.boundary[0][0], stub_node(self.boundary[0]))

    def with_rotation(self, rotation: RotationSystem) -> "PartEmbedding":
        return replace(self, rotation=rotation)

    def internal_rotations(self) -> dict[NodeId, tuple]:
        """Per-vertex rotations with stubs replaced by their real targets."""
        result = {}
        for v in self.graph.nodes():
            ring = []
            for u in self.rotation.order(v):
                ring.append(u[2] if is_stub(u) else u)
            result[v] = tuple(ring)
        return result


def fresh_part(
    graph: Graph,
    boundary: list[HalfEdge],
    depth: int | None = None,
    part_id: "int | tuple | None" = None,
) -> PartEmbedding:
    """Create a part by embedding its graph with the boundary co-facial."""
    if not graph.is_connected():
        raise ValueError("a part must induce a connected subgraph")
    rotation = embed_with_boundary(graph, boundary)
    if depth is None:
        depth = graph_depth(graph)
    if part_id is None:
        part_id = next_part_id()
    return PartEmbedding(
        part_id=part_id, graph=graph, boundary=list(boundary), rotation=rotation, depth=depth
    )


@dataclass
class PartitionState:
    """A full partition of the network, with the Definition 3.1 audit.

    Used by the safety experiment (E6) and by property-based tests: after
    every partitioning or merging step of the algorithm, the partition of
    ``V`` into parts must remain *safe* — each non-trivial part's
    complement induces a connected subgraph.
    """

    network: Graph
    parts: list[PartEmbedding] = field(default_factory=list)

    def covered(self) -> set[NodeId]:
        return set().union(*(p.vertices for p in self.parts)) if self.parts else set()

    def is_partition(self) -> bool:
        cover = self.covered()
        total = sum(len(p.vertices) for p in self.parts)
        return cover == set(self.network.nodes()) and total == len(cover)

    def violating_parts(self) -> list[int]:
        """Part IDs whose removal disconnects the remainder (safety violations)."""
        violations = []
        all_nodes = set(self.network.nodes())
        for part in self.parts:
            if part.is_trivial:
                continue
            rest = all_nodes - part.vertices
            if not rest:
                continue
            if not self.network.subgraph(rest).is_connected():
                violations.append(part.part_id)
        return violations

    def is_safe(self) -> bool:
        return self.is_partition() and not self.violating_parts()
