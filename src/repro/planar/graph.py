"""Lightweight simple-graph type with stable edge identifiers.

The paper (footnote 5) identifies an edge ``e = {u, v}`` by the pair
``ID(e) = (ID(u), ID(v))`` with ``ID(u) < ID(v)``.  Everything in this
reproduction uses the same convention, so edge identifiers are comparable
and orderable across the whole network without coordination, which the
distributed algorithm relies on (e.g. biconnected-component IDs are minimum
edge IDs).

The class is intentionally small: it is the substrate shared by the
centralized planar toolkit (:mod:`repro.planar`) and the CONGEST simulator
(:mod:`repro.congest`), not a general-purpose graph library.  ``networkx``
is deliberately not used anywhere inside the library; it appears only in
the test-suite as an independent oracle.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from typing import TypeAlias

NodeId: TypeAlias = Hashable
EdgeId: TypeAlias = tuple

__all__ = ["Graph", "NodeId", "EdgeId", "edge_id", "precedes", "GraphError"]


class GraphError(ValueError):
    """Raised on structurally invalid graph operations."""


def precedes(a: object, b: object) -> bool:
    """Whether ``a`` orders before ``b``, real and pseudo vertices mixed.

    The embedding pipeline runs on int ranks (real vertices) and tuple
    pseudo-vertices such as half-edge stubs, split-off copies and hubs,
    which Python cannot compare with each other.  Here a tuple orders
    before every non-tuple, and two tuples compare item by item under
    the same rule; other values compare naturally, or by ``repr`` when
    they cannot be compared (ints mixed with strings, complex numbers),
    so every graph still gets canonical edge IDs.  Edge IDs, tuples of
    nodes, order the same way.
    """
    a_is_tuple = a.__class__ is tuple
    if a_is_tuple is not (b.__class__ is tuple):
        return a_is_tuple
    if a_is_tuple:
        for x, y in zip(a, b):
            if x != y:
                return precedes(x, y)
        return len(a) < len(b)
    try:
        return a < b
    except TypeError:
        return repr(a) < repr(b)


def edge_id(u: NodeId, v: NodeId) -> EdgeId:
    """Return the canonical identifier of the undirected edge ``{u, v}``.

    Per the paper's footnote 5 the identifier is the ordered pair of the
    endpoint identifiers, smaller first.  When the endpoints cannot be
    compared (a real vertex and a pseudo-vertex, or two pseudo-vertices
    holding one of each at the same position), :func:`precedes` decides.
    """
    if u == v:
        raise GraphError(f"self-loops are not allowed: {u!r}")
    cu, cv = u.__class__, v.__class__
    if cu is not cv:
        # A rank and a pseudo-vertex: never comparable, the tuple first.
        if cu is tuple and cv is int:
            return (u, v)
        if cu is int and cv is tuple:
            return (v, u)
    try:
        return (u, v) if u < v else (v, u)
    except TypeError:
        return (u, v) if precedes(u, v) else (v, u)


class Graph:
    """An undirected simple graph with deterministic iteration order.

    Nodes may be any hashable, mutually comparable values.  Adjacency
    preserves insertion order, which keeps every algorithm in the library
    deterministic without extra sorting.
    """

    __slots__ = ("_adj",)

    def __init__(
        self,
        nodes: Iterable[NodeId] = (),
        edges: Iterable[tuple[NodeId, NodeId]] = (),
    ) -> None:
        self._adj: dict[NodeId, dict[NodeId, None]] = {node: {} for node in nodes}
        for u, v in edges:
            self.add_edge(u, v)

    # -- construction ----------------------------------------------------

    def add_node(self, node: NodeId) -> None:
        """Add ``node`` if not already present."""
        self._adj.setdefault(node, {})

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Add the undirected edge ``{u, v}``, adding endpoints as needed.

        Parallel edges are silently coalesced (the graph is simple);
        self-loops raise :class:`GraphError`.
        """
        if u == v:
            raise GraphError(f"self-loops are not allowed: {u!r}")
        adj = self._adj
        adj.setdefault(u, {})[v] = None
        adj.setdefault(v, {})[u] = None

    def add_graph(self, other: "Graph") -> None:
        """Add ``other``'s nodes, then its edges in :meth:`edges` order.

        The adjacency comes out as adding them one by one would give it,
        without an edge ID per edge: at each vertex of ``other``, its
        neighbours there listed earlier in node order first, then its
        later ones in its own order.
        """
        adj = self._adj
        for v in other._adj:
            if v not in adj:
                adj[v] = {}
        for u, nbrs in other._adj.items():
            nu = adj[u]
            for v in nbrs:
                if v not in nu:  # else present, or added from v, earlier
                    nu[v] = None
                    adj[v][u] = None

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove the edge ``{u, v}``; raise :class:`GraphError` if absent."""
        if not self.has_edge(u, v):
            raise GraphError(f"no such edge: {u!r}-{v!r}")
        del self._adj[u][v]
        del self._adj[v][u]

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._adj:
            raise GraphError(f"no such node: {node!r}")
        for neighbor in list(self._adj[node]):
            del self._adj[neighbor][node]
        del self._adj[node]

    def copy(self) -> "Graph":
        """Return an independent copy preserving iteration order."""
        clone = Graph()
        clone._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        return clone

    # -- queries ----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def __contains__(self, node: NodeId) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._adj)

    def nodes(self) -> list[NodeId]:
        """All nodes in insertion order."""
        return list(self._adj)

    def edges(self) -> list[tuple[NodeId, NodeId]]:
        """Each undirected edge once, as its canonical ``edge_id`` pair."""
        done: set[NodeId] = set()  # nodes whose edges are all listed
        result: list[tuple[NodeId, NodeId]] = []
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in done:
                    result.append(edge_id(u, v))
            done.add(u)
        return result

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, node: NodeId) -> list[NodeId]:
        """Neighbors of ``node`` in insertion order."""
        if node not in self._adj:
            raise GraphError(f"no such node: {node!r}")
        return list(self._adj[node])

    def degree(self, node: NodeId) -> int:
        if node not in self._adj:
            raise GraphError(f"no such node: {node!r}")
        return len(self._adj[node])

    # -- derived graphs ---------------------------------------------------

    def subgraph(self, nodes: Iterable[NodeId]) -> "Graph":
        """The subgraph induced by ``nodes`` (which must all exist)."""
        keep = set(nodes)
        missing = keep - self._adj.keys()
        if missing:
            raise GraphError(f"nodes not in graph: {sorted(missing, key=repr)}")
        sub = Graph()
        for node in self._adj:
            if node in keep:
                sub.add_node(node)
        for node in sub.nodes():
            for neighbor in self._adj[node]:
                if neighbor in keep:
                    sub._adj[node][neighbor] = None
        return sub

    def connected_components(self) -> list[set[NodeId]]:
        """Connected components as node sets, in first-seen order."""
        seen: set[NodeId] = set()
        components: list[set[NodeId]] = []
        for start in self._adj:
            if start in seen:
                continue
            component = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for neighbor in self._adj[node]:
                    if neighbor not in component:
                        component.add(neighbor)
                        stack.append(neighbor)
            seen |= component
            components.append(component)
        return components

    def is_connected(self) -> bool:
        """True for the empty graph and any single-component graph."""
        return len(self.connected_components()) <= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"
