"""Planarity oracle for locally-modified planar graphs.

``RecursionContext.try_split`` repeatedly asks "is the evolving network
still planar?" after rerouting one edge bundle at a coordinator through
a fresh copy vertex.  Testing the whole graph every time is wasteful:
work should be proportional to the change, not the network.  Each query
is settled by the first of three tiers that applies.

1. **Full test.**  Until some verdict has proven the evolving graph
   planar (the ``known_planar`` invariant), the oracle runs a
   decision-only left-right (LR) test of the whole graph — exactly what
   the reference path does — and establishes the invariant on a planar
   verdict.

2. **Witness.**  Once the invariant holds, the oracle keeps a planar
   rotation of the graph (a locally checkable proof of planarity) and
   answers from it.  If the rerouted darts are cyclically consecutive in
   the coordinator's ring, the reroute is a vertex split of that ring:
   the copy takes the bundle's interval and each bundle endpoint swaps
   the coordinator for the copy.  The split rotation is a planar
   embedding of the modified graph, so the answer is "planar", proven,
   in O(deg) time.  The rotation is built lazily: a query that finds
   none embeds the whole modified graph once with the LR kernel, whose
   verdict answers it (exactly — the pre-modification graph is known
   planar).  Single-edge subdivisions, which ``try_split`` keeps
   untested, are applied to the rotation too (:meth:`note_subdivision`).

3. **Block-scoped LR test.**  Every other query — a bundle that is not
   consecutive in the current rotation — falls back to the scoping
   argument of Observation 3.2: biconnected components meet only in
   cut vertices, so a graph is planar iff every block is planar.  Every
   edge the reroute *adds* is incident to the copy vertex, hence any
   block not containing the copy is a subgraph of the known-planar
   pre-modification graph, and the modified graph is planar **iff** the
   union of blocks containing the copy is planar.  That union equals
   the subgraph induced by their vertices (an edge between two such
   blocks' vertices would biconnect them), so one lowpoint DFS collects
   it and one LR test on it settles the verdict.  Verdicts are memoized
   by the region's edge set, with the copy renamed to a fixed token
   (copies carry a fresh serial, so a retried reroute of the same
   bundle hits).  An accepted fallback drops the rotation, which no
   longer matches the graph, and the next query rebuilds it; a rejected
   one keeps it, because the caller restores the graph exactly.

Verdicts are therefore always identical to full-graph testing — the
differential suite in ``tests/integration`` proves it end to end —
while the common query costs one ring scan instead of a whole-graph LR
test.
"""

from __future__ import annotations

from .graph import Graph, NodeId
from .lr_planarity import lr_is_planar, lr_planarity

__all__ = ["ScopedPlanarityOracle"]

# Stands in for the fresh copy vertex in memo keys: copies are
# ("copy", coordinator, part, serial) 4-tuples, so a 1-tuple can't
# collide with any real node.
_COPY_TOKEN = ("copy-region",)


class ScopedPlanarityOracle:
    """Witness-backed, block-scoped planarity decisions for one evolving
    graph.

    All state — counters, ``known_planar``, the rotation and the
    region-verdict memo — is **per instance**, never module-global:
    the memo keys on regions of one evolving graph, so sharing it
    across runs would let one run's history change another's counters.
    """

    MEMO_MAX_ENTRIES = 4096

    def __init__(self, graph: Graph) -> None:
        self.graph = graph  # the evolving graph, shared by reference
        self.known_planar = False  # proven for the graph's current state
        self.full_tests = 0
        self.scoped_tests = 0
        self.memo_hits = 0
        self._memo: dict[frozenset, bool] = {}
        # A planar rotation of ``graph`` (vertex -> clockwise neighbor
        # tuple), or None until the next scoped query builds one.
        self.rotation: dict[NodeId, tuple[NodeId, ...]] | None = None

    def stats(self) -> dict[str, int]:
        return {
            "full_tests": self.full_tests,
            "scoped_tests": self.scoped_tests,
            "memo_hits": self.memo_hits,
        }

    def note_subdivision(self, copy: NodeId, coordinator: NodeId, u: NodeId) -> None:
        """Keep the rotation in step with an untested subdivision of the
        edge ``{u, coordinator}`` by ``copy``."""
        if self.rotation is not None:
            _split_vertex(self.rotation, copy, coordinator, (u,))

    def check_rerouted(
        self, copy: NodeId, coordinator: NodeId, rerouted: list[NodeId]
    ) -> bool:
        """Planarity of the graph after the edges from ``coordinator`` to
        ``rerouted`` were moved onto ``copy`` and ``copy`` was joined to
        ``coordinator`` — the only modification since the last verdict.

        On a ``False`` verdict the caller must restore the graph exactly
        (``try_split`` does); the pre-modification graph was planar, so
        the invariant and the rotation survive.
        """
        if not self.known_planar:
            self.full_tests += 1
            ok = lr_is_planar(self.graph)
            self.known_planar = ok
            return ok
        self.scoped_tests += 1
        rotation = self.rotation
        if rotation is None:
            embedding = lr_planarity(self.graph)
            if embedding is None:
                return False
            self.rotation = embedding.as_dict()
            return True
        if _split_vertex(rotation, copy, coordinator, rerouted):
            return True
        region, key = self._region_at(copy)
        cached = self._memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            ok = cached
        else:
            ok = lr_is_planar(self.graph.subgraph(region))
            if len(self._memo) >= self.MEMO_MAX_ENTRIES:
                self._memo.clear()
            self._memo[key] = ok
        if ok:
            self.rotation = None
        return ok

    # -- region extraction -------------------------------------------------

    def _region_at(self, root: NodeId) -> tuple[set[NodeId], frozenset]:
        """Vertices of the blocks containing ``root``, plus the memo key.

        One iterative Hopcroft–Tarjan lowpoint DFS rooted at ``root``;
        only blocks whose closing cut vertex is the root itself are
        harvested (every block containing the root closes there).
        """
        adj = self.graph._adj
        disc: dict[NodeId, int] = {root: 0}
        low: dict[NodeId, int] = {root: 0}
        edge_stack: list[tuple[NodeId, NodeId]] = []
        region: set[NodeId] = {root}
        key_edges: list[frozenset] = []
        counter = 1
        stack: list[tuple[NodeId, NodeId | None, object]] = [
            (root, None, iter(adj[root]))
        ]
        while stack:
            v, parent, neighbors = stack[-1]
            descended = False
            for w in neighbors:
                if w not in disc:
                    disc[w] = low[w] = counter
                    counter += 1
                    edge_stack.append((v, w))
                    stack.append((w, v, iter(adj[w])))
                    descended = True
                    break
                if w != parent and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if descended:
                continue
            stack.pop()
            if not stack:
                break
            u = stack[-1][0]
            lv = low[v]
            if lv < low[u]:
                low[u] = lv
            if lv >= disc[u]:
                # u closes a block: pop its edges; harvest root blocks
                if u == root:
                    while True:
                        a, b = edge_stack.pop()
                        region.add(a)
                        region.add(b)
                        key_edges.append(
                            frozenset(
                                (
                                    _COPY_TOKEN if a == root else a,
                                    _COPY_TOKEN if b == root else b,
                                )
                            )
                        )
                        if a == u and b == v:
                            break
                else:
                    while True:
                        a, b = edge_stack.pop()
                        if a == u and b == v:
                            break
        return region, frozenset(key_edges)


def _split_vertex(
    rotation: dict[NodeId, tuple[NodeId, ...]],
    copy: NodeId,
    coordinator: NodeId,
    bundle,
) -> bool:
    """Split ``coordinator`` in ``rotation`` if ``bundle`` is cyclically
    consecutive in its ring; ``False`` (rotation untouched) otherwise.

    The copy takes the bundle's interval of the ring: the coordinator
    sees the copy where the bundle was, the copy sees the coordinator
    followed by the bundle in ring order, and each bundle endpoint sees
    the copy where the coordinator was.  Every face of the old rotation
    maps to one face of the new one (the copy edge runs inside the two
    faces flanking the interval), so a planar rotation stays planar.
    """
    ring = rotation[coordinator]
    members = set(bundle)
    d = len(ring)
    k = len(members)
    start = 0
    if k < d:
        start = -1
        prev_in = ring[-1] in members
        for i, u in enumerate(ring):
            now_in = u in members
            if now_in and not prev_in:
                if start >= 0:
                    return False  # a second run: not consecutive
                start = i
            prev_in = now_in
    end = start + k
    if end <= d:
        run = ring[start:end]
        rotation[coordinator] = ring[:start] + (copy,) + ring[end:]
    else:  # the interval wraps past the end of the ring
        run = ring[start:] + ring[: end - d]
        rotation[coordinator] = (copy,) + ring[end - d : start]
    rotation[copy] = (coordinator,) + run
    for u in run:
        r = rotation[u]
        i = r.index(coordinator)
        rotation[u] = r[:i] + (copy,) + r[i + 1 :]
    return True
