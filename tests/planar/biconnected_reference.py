"""Test-local reference for the block decomposition: the copying DFS.

This is :func:`repro.planar.biconnected.biconnected_components` as it
was before it read the graph's adjacency in place: the DFS copies each
vertex's neighbour list on entry, every block (a bridge too) goes through
one edge ID per edge and a minimum over them, and every vertex's
membership list is sorted.  ``test_kernel_differential.py`` holds the
shipped decomposition to it: the same blocks in the same order, and the
same membership, ID and edge maps, key order included.
"""

from __future__ import annotations

from functools import reduce

from repro.planar.biconnected import BiconnectedComponent, BiconnectedDecomposition
from repro.planar.graph import Graph, NodeId, edge_id, precedes


def biconnected_components(graph: Graph) -> BiconnectedDecomposition:
    """Decompose ``graph`` into biconnected components (blocks)."""
    decomposition = BiconnectedDecomposition(graph=graph)
    decomposition.components_of = {v: [] for v in graph.nodes()}

    visited: set[NodeId] = set()
    depth: dict[NodeId, int] = {}
    low: dict[NodeId, int] = {}
    parent: dict[NodeId, NodeId | None] = {}
    edge_stack: list[tuple[NodeId, NodeId]] = []

    def flush_component(edges: list[tuple[NodeId, NodeId]]) -> None:
        if not edges:
            return
        eids = frozenset(edge_id(u, v) for u, v in edges)
        vertices = frozenset(v for e in edges for v in e)
        try:
            cid = min(eids)
        except TypeError:  # real and pseudo vertices
            cid = reduce(lambda a, b: b if precedes(b, a) else a, eids)
        component = BiconnectedComponent(cid, eids, vertices)
        decomposition.components.append(component)
        decomposition.component_by_id[cid] = component
        for v in vertices:
            decomposition.components_of[v].append(cid)
        for eid in eids:
            decomposition.component_of_edge[eid] = cid

    for root in graph.nodes():
        if root in visited:
            continue
        visited.add(root)
        depth[root] = 0
        low[root] = 0
        parent[root] = None
        stack: list[tuple[NodeId, iter]] = [(root, iter(graph.neighbors(root)))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w not in visited:
                    parent[w] = v
                    visited.add(w)
                    depth[w] = depth[v] + 1
                    low[w] = depth[w]
                    edge_stack.append((v, w))
                    stack.append((w, iter(graph.neighbors(w))))
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
                component_edges: list[tuple[NodeId, NodeId]] = []
                while True:
                    e = edge_stack.pop()
                    component_edges.append(e)
                    if e == (u, v):
                        break
                flush_component(component_edges)

    decomposition.components.sort(key=lambda c: repr(c.component_id))
    for v in decomposition.components_of:
        decomposition.components_of[v].sort(key=repr)
    return decomposition
