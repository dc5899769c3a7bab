"""Biconnected-component decomposition.

Observation 3.2 of the paper reduces a part's embedding freedom to its
biconnected-component decomposition: each block has a fixed cyclic
interface (up to a flip), and blocks may permute freely around cut
vertices.  The paper's distributed representation gives each component an
ID equal to the smallest edge ID inside it (footnote 5); we follow the
same convention so component IDs are globally consistent without
coordination.

The decomposition itself is the classical Hopcroft-Tarjan lowpoint DFS,
implemented iteratively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .graph import EdgeId, Graph, NodeId, edge_id, precedes

__all__ = [
    "BiconnectedComponent",
    "BiconnectedDecomposition",
    "biconnected_components",
]


@dataclass(frozen=True)
class BiconnectedComponent:
    """One block: its canonical ID, edge set, and vertex set."""

    component_id: EdgeId
    edges: frozenset
    vertices: frozenset

    @property
    def is_bridge(self) -> bool:
        return len(self.edges) == 1


@dataclass
class BiconnectedDecomposition:
    """All blocks of a graph plus per-vertex membership maps.

    ``components_of[v]`` lists the blocks containing ``v``; a vertex is a
    cut vertex exactly when it lies in two or more blocks (matching the
    paper's distributed representation, where each vertex knows its block
    memberships and thereby whether it is a cut vertex).
    """

    graph: Graph
    components: list[BiconnectedComponent] = field(default_factory=list)
    components_of: dict[NodeId, list[EdgeId]] = field(default_factory=dict)
    component_by_id: dict[EdgeId, BiconnectedComponent] = field(default_factory=dict)
    component_of_edge: dict[EdgeId, EdgeId] = field(default_factory=dict)

    def is_cut_vertex(self, v: NodeId) -> bool:
        return len(self.components_of.get(v, ())) >= 2

    def cut_vertices(self) -> set[NodeId]:
        return {v for v in self.graph.nodes() if self.is_cut_vertex(v)}

    def shared_component(self, u: NodeId, v: NodeId) -> EdgeId:
        """The unique block containing the edge ``{u, v}``."""
        return self.component_of_edge[edge_id(u, v)]


def biconnected_components(graph: Graph) -> BiconnectedDecomposition:
    """Decompose ``graph`` into biconnected components (blocks).

    Isolated vertices yield no blocks (they have no edges); every edge
    belongs to exactly one block.  Runs iteratively in O(n + m), over the
    graph's adjacency in place.
    """
    adj = graph._adj
    decomposition = BiconnectedDecomposition(graph=graph)
    components = decomposition.components
    components_of = decomposition.components_of = {v: [] for v in adj}
    component_by_id = decomposition.component_by_id
    component_of_edge = decomposition.component_of_edge

    depth: dict[NodeId, int] = {}  # also the visited set
    low: dict[NodeId, int] = {}
    parent: dict[NodeId, NodeId | None] = {}
    edge_stack: list[tuple[NodeId, NodeId]] = []

    def add(component: BiconnectedComponent) -> None:
        cid = component.component_id
        components.append(component)
        component_by_id[cid] = component
        for v in component.vertices:
            components_of[v].append(cid)
        for eid in component.edges:
            component_of_edge[eid] = cid

    def flush_component(edges: list[tuple[NodeId, NodeId]]) -> None:
        eids = frozenset(edge_id(u, v) for u, v in edges)
        vertices = frozenset(v for e in edges for v in e)
        try:
            cid = min(eids)
        except TypeError:  # real and pseudo vertices
            cid = reduce(lambda a, b: b if precedes(b, a) else a, eids)
        add(BiconnectedComponent(cid, eids, vertices))

    for root in adj:
        if root in depth:
            continue
        depth[root] = 0
        low[root] = 0
        parent[root] = None
        stack: list[tuple[NodeId, iter]] = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w not in depth:
                    parent[w] = v
                    depth[w] = low[w] = depth[v] + 1
                    edge_stack.append((v, w))
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w != parent[v] and depth[w] < depth[v]:
                    # back edge to a strict ancestor
                    edge_stack.append((v, w))
                    low[v] = min(low[v], depth[w])
            if advanced:
                continue
            stack.pop()
            if not stack:
                continue
            u = stack[-1][0]  # v's DFS parent
            low[u] = min(low[u], low[v])
            if low[v] >= depth[u]:
                # u separates v's subtree: everything pushed after (u, v)
                # is one block, ended by (u, v) itself.
                if edge_stack[-1] == (u, v):  # a bridge
                    edge_stack.pop()
                    cid = edge_id(u, v)
                    add(BiconnectedComponent(cid, frozenset((cid,)), frozenset((u, v))))
                    continue
                component_edges: list[tuple[NodeId, NodeId]] = []
                while True:
                    e = edge_stack.pop()
                    component_edges.append(e)
                    if e == (u, v):
                        break
                flush_component(component_edges)

    # Deterministic order, and deterministic per-vertex membership lists
    # (a vertex in one block has nothing to sort).
    components.sort(key=lambda c: repr(c.component_id))
    for blocks in components_of.values():
        if len(blocks) > 1:
            blocks.sort(key=repr)
    return decomposition
