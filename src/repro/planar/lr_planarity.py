"""From-scratch left-right planarity test with an embedding phase.

This module is the reproduction's stand-in for the Hopcroft-Tarjan
planarity algorithm [HT74] that the paper cites as the centralized
counterpart of its contribution.  It implements the left-right (also
known as de Fraysseix-Rosenstiehl) planarity criterion in the formulation
of Brandes' lecture notes ("The left-right planarity test"), including the
embedding phase, so that a planar input yields a full rotation system.

The algorithm runs in three DFS passes over an orientation of the graph:

1. *Orientation* - root a DFS forest, classify edges as tree/back edges,
   and compute ``lowpt``/``lowpt2``/``nesting_depth`` per directed edge.
2. *Testing* - process outgoing edges in nesting order while maintaining a
   stack of conflict pairs (intervals of return edges that must go to the
   same side); a forced left-left/right-right conflict proves K5/K3,3.
3. *Embedding* - resolve the relative sides via the ``ref``/``side``
   relation, re-sort adjacencies by signed nesting depth, and emit a
   rotation system by splicing back edges next to the correct reference
   half-edges.

All passes are iterative (no Python recursion) so graphs far beyond the
interpreter's recursion limit embed fine.  The test-suite cross-validates
this module against ``networkx.check_planarity`` on thousands of random
graphs; inside the library it is the *only* planarity kernel.

Internally the input is relabeled to integers ``0..n-1`` in node
insertion order and a directed edge ``(v, w)`` is encoded as the integer
``v * n + w``, so every per-edge map is keyed by small ints instead of
tuples of (often nested-tuple) node identifiers.  The relabeling is
order-preserving — adjacency lists keep their insertion order, and the
nesting-depth sorts are stable — so the emitted rotation system is
exactly the one the algorithm would produce on the original labels.

Callers that only need the verdict (the Kuratowski witness search) can
use :func:`is_planar` or :func:`lr_is_planar`, which run the orientation
and testing passes and skip the embedding phase entirely.

CONGEST context: nodes have unbounded local computation, so the
distributed algorithm's coordinators may run this kernel locally on the
(small, summarized) instances they gather; see ``repro.core.merges``.
"""

from __future__ import annotations

from .graph import Graph, NodeId
from .rotation import RotationSystem

__all__ = [
    "NonPlanarGraphError",
    "lr_planarity",
    "lr_is_planar",
    "planar_embedding",
    "is_planar",
]


class NonPlanarGraphError(ValueError):
    """Raised when an embedding is requested for a non-planar graph."""


# Structural memoization of embeddings: the solver relabels nodes to
# ``0..n-1`` in insertion order, and every pass afterwards is a pure
# function of the relabeled adjacency structure ``tuple(tuple(ints), ...)``.
# Two graphs with the same structure therefore get the same int-level
# rotations — only the final int->node mapping differs.  The recursion
# embeds thousands of small parts (leaf stars, short paths, small
# split-off parts) that collide on structure constantly.  The memo is
# cleared wholesale when full.  Decisions are not memoized: the
# Kuratowski witness search, their one caller in the pipeline, asks about
# a new structure every time (one edge removed, or re-added at the back
# of the adjacency).
_MEMO_MISS = object()
_EMBED_MEMO: dict[tuple, tuple[tuple[int, ...], ...] | None] = {}
_MEMO_MAX_ENTRIES = 1 << 12


def is_planar(graph: Graph) -> bool:
    """True iff ``graph`` is planar (decision only; no embedding built)."""
    return _LRPlanarity(graph).decide()


def lr_is_planar(graph: Graph) -> bool:
    """Decision-only left-right test: orientation + testing passes.

    Identical verdict to ``lr_planarity(graph) is not None`` (the
    embedding pass never changes the outcome) at roughly two thirds of
    the cost; use it wherever the rotation system itself is not needed.
    """
    return _LRPlanarity(graph).decide()


def planar_embedding(graph: Graph) -> RotationSystem:
    """A combinatorial planar embedding of ``graph``.

    Raises :class:`NonPlanarGraphError` when the graph is not planar.
    """
    rotation = lr_planarity(graph)
    if rotation is None:
        raise NonPlanarGraphError(
            f"graph with {graph.num_nodes} nodes / {graph.num_edges} edges is not planar"
        )
    return rotation


def lr_planarity(graph: Graph) -> RotationSystem | None:
    """Left-right planarity test; a rotation system, or ``None`` if non-planar."""
    solver = _LRPlanarity(graph)
    key = tuple(map(tuple, solver.adj))
    rings = _EMBED_MEMO.get(key, _MEMO_MISS)
    if rings is _MEMO_MISS:
        rings = solver.int_rotations()
        if len(_EMBED_MEMO) >= _MEMO_MAX_ENTRIES:
            _EMBED_MEMO.clear()
        _EMBED_MEMO[key] = rings
    if rings is None:
        return None
    nodes = solver.nodes
    order = {
        nodes[v]: tuple(nodes[w] for w in ring) for v, ring in enumerate(rings)
    }
    return RotationSystem.trusted(graph, order)


class _Interval:
    """An interval of return edges, empty when both ends are ``None``."""

    __slots__ = ("low", "high")

    def __init__(self, low=None, high=None) -> None:
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None

    def copy(self) -> "_Interval":
        return _Interval(self.low, self.high)


class _ConflictPair:
    """A left/right pair of return-edge intervals on the constraint stack."""

    __slots__ = ("left", "right")

    def __init__(self, left: _Interval | None = None, right: _Interval | None = None) -> None:
        self.left = left if left is not None else _Interval()
        self.right = right if right is not None else _Interval()

    def swap(self) -> None:
        self.left, self.right = self.right, self.left

    def lowest(self, state: "_LRPlanarity") -> int:
        if self.left.empty():
            return state.lowpt[self.right.low]
        if self.right.empty():
            return state.lowpt[self.left.low]
        return min(state.lowpt[self.left.low], state.lowpt[self.right.low])


def _top(stack: list) -> _ConflictPair | None:
    return stack[-1] if stack else None


class _EmbeddingBuilder:
    """Half-edge rings under construction: per-vertex circular cw lists.

    Vertices are the relabeled integers ``0..n-1``.
    """

    __slots__ = ("next_cw", "next_ccw", "first")

    def __init__(self, n: int) -> None:
        self.next_cw: list[dict[int, int]] = [{} for _ in range(n)]
        self.next_ccw: list[dict[int, int]] = [{} for _ in range(n)]
        self.first: list[int | None] = [None] * n

    def _add_lonely(self, v: NodeId, w: NodeId) -> None:
        self.next_cw[v][w] = w
        self.next_ccw[v][w] = w
        self.first[v] = w

    def add_half_edge_cw(self, v: NodeId, w: NodeId, ref: NodeId | None) -> None:
        """Insert half-edge ``v -> w`` clockwise-after ``ref`` at ``v``."""
        if ref is None:
            self._add_lonely(v, w)
            return
        after = self.next_cw[v][ref]
        self.next_cw[v][ref] = w
        self.next_cw[v][w] = after
        self.next_ccw[v][after] = w
        self.next_ccw[v][w] = ref

    def add_half_edge_ccw(self, v: NodeId, w: NodeId, ref: NodeId | None) -> None:
        """Insert half-edge ``v -> w`` counter-clockwise-after ``ref`` at ``v``."""
        if ref is None:
            self._add_lonely(v, w)
            return
        self.add_half_edge_cw(v, w, self.next_ccw[v][ref])
        if ref == self.first[v]:
            self.first[v] = w

    def add_half_edge_first(self, v: NodeId, w: NodeId) -> None:
        """Insert ``v -> w`` so that ``w`` becomes the first neighbor of ``v``."""
        self.add_half_edge_ccw(v, w, self.first[v])
        self.first[v] = w

    def rotation_of(self, v: NodeId) -> tuple[NodeId, ...]:
        start = self.first[v]
        if start is None:
            return ()
        ring = [start]
        cur = self.next_cw[v][start]
        while cur != start:
            ring.append(cur)
            cur = self.next_cw[v][cur]
        return tuple(ring)


class _LRPlanarity:
    """State machine for one left-right planarity run.

    Works on the integer relabeling described in the module docstring:
    vertex ``i`` is ``graph.nodes()[i]`` and the directed edge
    ``(v, w)`` is the int ``v * n + w``.  Node-indexed state lives in
    flat lists; edge-indexed state in int-keyed dicts.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        nodes = graph.nodes()
        n = len(nodes)
        self.nodes = nodes
        self.n = n
        index = {u: i for i, u in enumerate(nodes)}
        self.adj: list[list[int]] = [
            [index[w] for w in graph._adj[u]] for u in nodes
        ]
        self.roots: list[int] = []
        self.height: list[int | None] = [None] * n
        self.parent_edge: list[int | None] = [None] * n
        # Per *directed* edge (int codes v * n + w):
        self.lowpt: dict[int, int] = {}
        self.lowpt2: dict[int, int] = {}
        self.nesting_depth: dict[int, int] = {}
        self.oriented: set[int] = set()
        self.out_adj: list[list[int]] = [[] for _ in range(n)]
        self.ordered_adjs: list[list[int]] = [[] for _ in range(n)]
        self.ref: dict[int, int | None] = {}
        self.side: dict[int, int] = {}
        self.S: list[_ConflictPair] = []
        self.stack_bottom: dict[int, _ConflictPair | None] = {}
        self.lowpt_edge: dict[int, int] = {}

    def _ordered_out_adj(self, v: int) -> list[int]:
        """``out_adj[v]`` stably sorted by nesting depth (cheap int keys)."""
        base = v * self.n
        nesting_depth = self.nesting_depth
        decorated = sorted(
            (nesting_depth[base + w], i, w) for i, w in enumerate(self.out_adj[v])
        )
        return [w for _, _, w in decorated]

    def decide(self) -> bool:
        """Passes 1 + 2 only: True iff the graph is planar."""
        graph = self.graph
        n = self.n
        if n > 2 and graph.num_edges > 3 * n - 6:
            return False  # violates the planar edge bound

        # Pass 1: orientation.
        for v in range(n):
            if self.height[v] is None:
                self.height[v] = 0
                self.roots.append(v)
                self._dfs_orientation(v)

        # Pass 2: testing.
        for v in range(n):
            self.ordered_adjs[v] = self._ordered_out_adj(v)
        for root in self.roots:
            if not self._dfs_testing(root):
                return False
        return True

    def int_rotations(self) -> tuple[tuple[int, ...], ...] | None:
        """Per-vertex clockwise rings over the int relabeling (or None).

        This is the whole algorithm minus the final int->node mapping; a
        pure function of ``self.adj``, which is what makes the module's
        structural memo sound.
        """
        if not self.decide():
            return None

        # Pass 3: embedding.
        n = self.n
        nesting_depth = self.nesting_depth
        sign = self._sign
        for v in range(n):
            base = v * n
            for w in self.out_adj[v]:
                e = base + w
                nesting_depth[e] = sign(e) * nesting_depth[e]
        embedding = self.embedding = _EmbeddingBuilder(n)
        add_half_edge_cw = embedding.add_half_edge_cw
        for v in range(n):
            ordered = self._ordered_out_adj(v)
            self.ordered_adjs[v] = ordered
            previous = None
            for w in ordered:
                add_half_edge_cw(v, w, previous)
                previous = w
        self.left_ref: list[int | None] = [None] * n
        self.right_ref: list[int | None] = [None] * n
        for root in self.roots:
            self._dfs_embedding(root)

        return tuple(embedding.rotation_of(v) for v in range(n))

    # -- pass 1 -----------------------------------------------------------

    def _dfs_orientation(self, start: int) -> None:
        n = self.n
        height = self.height
        parent_edge = self.parent_edge
        lowpt = self.lowpt
        lowpt2 = self.lowpt2
        nesting_depth = self.nesting_depth
        oriented = self.oriented
        out_adj = self.out_adj
        ref = self.ref
        side = self.side
        adj = self.adj
        dfs_stack = [start]
        ind: dict[int, int] = {}
        skip_init: set[int] = set()

        while dfs_stack:
            v = dfs_stack.pop()
            e = parent_edge[v]
            adjacency = adj[v]
            base = v * n
            hv = height[v]
            descend = False
            i = ind.get(v, 0)
            while i < len(adjacency):
                w = adjacency[i]
                vw = base + w
                if vw not in skip_init:
                    if vw in oriented or w * n + v in oriented:
                        i += 1
                        continue
                    oriented.add(vw)
                    out_adj[v].append(w)
                    ref[vw] = None
                    side[vw] = 1
                    lowpt[vw] = hv
                    lowpt2[vw] = hv
                    if height[w] is None:  # tree edge
                        parent_edge[w] = vw
                        height[w] = hv + 1
                        ind[v] = i
                        dfs_stack.append(v)  # resume v afterwards
                        dfs_stack.append(w)
                        skip_init.add(vw)
                        descend = True
                        break
                    lowpt[vw] = height[w]  # back edge

                # nesting depth: twice the lowpoint, +1 if chordal
                nesting_depth[vw] = 2 * lowpt[vw] + (1 if lowpt2[vw] < hv else 0)

                if e is not None:  # fold lowpoints into the parent edge
                    lw = lowpt[vw]
                    le = lowpt[e]
                    if lw < le:
                        lowpt2[e] = min(le, lowpt2[vw])
                        lowpt[e] = lw
                    elif lw > le:
                        lowpt2[e] = min(lowpt2[e], lw)
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[vw])
                i += 1
            if not descend:
                ind[v] = i

    # -- pass 2 -----------------------------------------------------------

    def _dfs_testing(self, start: int) -> bool:
        n = self.n
        height = self.height
        parent_edge = self.parent_edge
        lowpt = self.lowpt
        lowpt_edge = self.lowpt_edge
        stack_bottom = self.stack_bottom
        S = self.S
        dfs_stack = [start]
        ind: dict[int, int] = {}
        skip_init: set[int] = set()

        while dfs_stack:
            v = dfs_stack.pop()
            e = parent_edge[v]
            adjacency = self.ordered_adjs[v]
            base = v * n
            hv = height[v]
            descend = False
            i = ind.get(v, 0)
            while i < len(adjacency):
                w = adjacency[i]
                ei = base + w
                if ei not in skip_init:
                    stack_bottom[ei] = S[-1] if S else None
                    if ei == parent_edge[w]:  # tree edge: recurse first
                        ind[v] = i
                        dfs_stack.append(v)
                        dfs_stack.append(w)
                        skip_init.add(ei)
                        descend = True
                        break
                    # back edge: its own one-element right interval
                    lowpt_edge[ei] = ei
                    S.append(_ConflictPair(right=_Interval(ei, ei)))

                # integrate the return edges contributed by ei
                if lowpt[ei] < hv:
                    if w == adjacency[0]:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not self._add_constraints(ei, e):
                        return False  # forced same-side conflict: non-planar
                i += 1
            if descend:
                continue
            ind[v] = i
            if e is not None:
                self._remove_back_edges(e)
        return True

    def _add_constraints(self, ei: int, e: int) -> bool:
        # Interval emptiness / conflict checks are inlined attribute tests
        # here (this is the innermost loop of the testing pass).
        lowpt = self.lowpt
        ref = self.ref
        S = self.S
        P = _ConflictPair()
        PL = P.left
        PR = P.right
        lp_e = lowpt[e]
        lp_ei = lowpt[ei]
        bottom = self.stack_bottom[ei]
        # merge return edges of ei into P.right
        while True:
            Q = S.pop()
            QL = Q.left
            if QL.low is not None or QL.high is not None:
                Q.swap()
                QL = Q.left
                if QL.low is not None or QL.high is not None:
                    return False
            QR = Q.right
            if lowpt[QR.low] > lp_e:
                if PR.low is None and PR.high is None:
                    PR.high = QR.high
                else:
                    ref[PR.low] = QR.high
                PR.low = QR.low
            else:  # align with the parent's lowpoint edge
                ref[QR.low] = self.lowpt_edge[e]
            if (S[-1] if S else None) is bottom:
                break
        # merge conflicting return edges of earlier siblings into P.left
        while True:
            top = S[-1]
            TL = top.left
            TR = top.right
            if not (
                (TL.high is not None and lowpt[TL.high] > lp_ei)
                or (TR.high is not None and lowpt[TR.high] > lp_ei)
            ):
                break
            Q = S.pop()
            QR = Q.right
            if QR.high is not None and lowpt[QR.high] > lp_ei:
                Q.swap()
                QR = Q.right
                if QR.high is not None and lowpt[QR.high] > lp_ei:
                    return False
            QL = Q.left
            ref[PR.low] = QR.high
            if QR.low is not None:
                PR.low = QR.low
            if PL.low is None and PL.high is None:
                PL.high = QL.high
            else:
                ref[PL.low] = QL.high
            PL.low = QL.low
        if not (PL.low is None and PL.high is None and PR.low is None and PR.high is None):
            S.append(P)
        return True

    def _remove_back_edges(self, e: int) -> None:
        n = self.n
        u = e // n
        hu = self.height[u]
        lowpt = self.lowpt
        S = self.S
        # drop entire conflict pairs whose lowest return point is u
        while S:
            top = S[-1]
            L = top.left
            if L.low is None and L.high is None:
                lowest = lowpt[top.right.low]
            else:
                R = top.right
                if R.low is None and R.high is None:
                    lowest = lowpt[L.low]
                else:
                    lowest = min(lowpt[L.low], lowpt[R.low])
            if lowest != hu:
                break
            P = S.pop()
            if P.left.low is not None:
                self.side[P.left.low] = -1
        if self.S:  # one more pair may need trimming
            P = self.S.pop()
            while P.left.high is not None and P.left.high % n == u:
                P.left.high = self.ref[P.left.high]
            if P.left.high is None and P.left.low is not None:
                self.ref[P.left.low] = P.right.low
                self.side[P.left.low] = -1
                P.left.low = None
            while P.right.high is not None and P.right.high % n == u:
                P.right.high = self.ref[P.right.high]
            if P.right.high is None and P.right.low is not None:
                self.ref[P.right.low] = P.left.low
                self.side[P.right.low] = -1
                P.right.low = None
            self.S.append(P)
        # the side of e follows the side of its highest return edge
        if self.lowpt[e] < hu:
            top = _top(self.S)
            hl = top.left.high
            hr = top.right.high
            if hl is not None and (hr is None or self.lowpt[hl] > self.lowpt[hr]):
                self.ref[e] = hl
            else:
                self.ref[e] = hr

    # -- pass 3 -----------------------------------------------------------

    def _sign(self, e: int) -> int:
        """Resolve the absolute side of ``e`` along its ``ref`` chain."""
        ref = self.ref
        side = self.side
        dfs_stack = [e]
        old_ref: dict[int, int] = {}
        while dfs_stack:
            cur = dfs_stack.pop()
            nxt = ref[cur]
            if nxt is not None:
                dfs_stack.append(cur)
                dfs_stack.append(nxt)
                old_ref[cur] = nxt
                ref[cur] = None
            elif cur in old_ref:
                side[cur] *= side[old_ref[cur]]
        return side[e]

    def _dfs_embedding(self, start: int) -> None:
        n = self.n
        parent_edge = self.parent_edge
        side = self.side
        embedding = self.embedding
        left_ref = self.left_ref
        right_ref = self.right_ref
        dfs_stack = [start]
        ind: dict[int, int] = {}

        while dfs_stack:
            v = dfs_stack.pop()
            adjacency = self.ordered_adjs[v]
            base = v * n
            i = ind.get(v, 0)
            while i < len(adjacency):
                w = adjacency[i]
                i += 1
                ei = base + w
                if ei == parent_edge[w]:  # tree edge
                    embedding.add_half_edge_first(w, v)
                    left_ref[v] = w
                    right_ref[v] = w
                    ind[v] = i
                    dfs_stack.append(v)
                    dfs_stack.append(w)
                    break
                # back edge: splice next to the reference half-edge at w
                if side[ei] == 1:
                    embedding.add_half_edge_cw(w, v, right_ref[w])
                else:
                    embedding.add_half_edge_ccw(w, v, left_ref[w])
                    left_ref[w] = v
            else:
                ind[v] = i
