"""The recursive embedding order (paper Section 4).

Each recursive call owns a BFS subtree ``T_s`` and embeds the subgraph
``H`` induced by it, with its half-embedded edges toward ``G \\ H``:

1. run the real distributed subtree-size convergecast and splitter token
   walk (O(depth) rounds) to find the 2/3-balanced vertex ``v``;
2. ``P0`` = the tree path ``s -> v`` (an induced path, hence a trivial
   part — Lemma 4.1); the hanging parts are the subtrees ``T_w`` for
   ``w`` tree-adjacent to ``P0``;
3. recurse on all hanging parts *in parallel* (they are vertex-disjoint,
   so their executions genuinely interleave; rounds combine as a max);
4. merge everything with the unrestricted path-coordinated merge.

Lemma 4.2/4.3 quantities (part sizes <= 2|T_s|/3, part depth
<= depth(T_s) - 1, recursion depth <= min(O(log n), D)) are recorded per
call in :class:`CallRecord` for experiments E4/E5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..congest.metrics import RoundMetrics
from ..obs import Tracer, maybe_span
from ..planar.graph import Graph, NodeId
from ..planar.scoped import ScopedPlanarityOracle
from ..primitives.bfs import BfsTree
from ..primitives.splitter import find_splitter
from ..primitives.subtree import compute_subtree_stats
from .index import RecursionIndex
from .parts import PartEmbedding, fresh_part
from .unrestricted import UnrestrictedMergeStats, unrestricted_path_merge

__all__ = ["CallRecord", "RecursionContext", "embed_subtree"]


def check_splitter_strategy(strategy: str) -> None:
    """Raise ``ValueError`` unless ``strategy`` is ``"balanced"`` (the
    paper's 2/3-balanced splitter) or ``"root"`` (the E12 ablation)."""
    if strategy not in ("balanced", "root"):
        raise ValueError(
            f"unknown splitter strategy {strategy!r}; expected 'balanced' or 'root'"
        )


@dataclass
class CallRecord:
    """Audit record of one recursive call (experiments E4, E5, E8)."""

    level: int
    root: NodeId
    subtree_size: int
    subtree_depth: int
    p0_length: int
    splitter: NodeId
    part_sizes: list[int]
    merge_stats: UnrestrictedMergeStats | None = None


@dataclass
class RecursionContext:
    """Shared inputs of the recursion: the network, its BFS tree, knobs."""

    graph: Graph
    tree: BfsTree
    bandwidth: int = 1
    trace: list[CallRecord] = field(default_factory=list)
    current: Graph | None = None  # graph as modified by accepted split-offs
    split_tests: int = 0
    split_rejections: int = 0
    splitter_strategy: str = "balanced"  # "balanced" (paper) | "root" (E12 ablation)
    tracer: Tracer | None = None  # span/event sink; None = zero instrumentation
    index: RecursionIndex = field(init=False)  # shared subtree stats
    oracle: ScopedPlanarityOracle = field(init=False)  # split validation

    def __post_init__(self) -> None:
        check_splitter_strategy(self.splitter_strategy)
        if self.current is None:
            self.current = self.graph.copy()
        self.index = RecursionIndex.build(self.tree)
        self.oracle = ScopedPlanarityOracle(self.current)

    def max_level(self) -> int:
        return max((r.level for r in self.trace), default=0)

    def try_split(self, copy: NodeId, coordinator: NodeId, rerouted: list[NodeId]) -> bool:
        """Validate a step-2(e) split-off against the evolving network.

        A split reroutes a part's edge bundle at ``coordinator`` through
        the fresh ``copy``.  A single-edge bundle is an edge subdivision
        and always planarity-safe; a larger bundle is safe only when some
        planar embedding keeps the bundle consecutive around the
        coordinator, which we decide by oracle-testing the modified
        graph (the paper's full version guarantees this by construction;
        see DESIGN.md §3).  The oracle (:class:`ScopedPlanarityOracle`)
        answers from a planar rotation it keeps in step with every
        split, subdivisions included, when the bundle is consecutive
        there, and otherwise runs one LR test of the whole modified
        graph, whose rotation it keeps when the verdict is planar.

        On success the modification is kept so later splits are tested
        against the up-to-date network.  On rejection the graph is
        restored *exactly* — including adjacency insertion order, which
        downstream iteration depends on for determinism — from dict
        snapshots of the touched vertices.
        """
        g = self.current
        adj = g._adj
        # Snapshot every adjacency dict this split mutates, so rejection
        # can restore iteration order exactly (re-adding edges would move
        # them to the back of the neighbor dicts).
        snapshot = {u: dict(adj[u]) for u in rerouted}
        snapshot[coordinator] = dict(adj[coordinator])
        for u in rerouted:
            g.remove_edge(u, coordinator)
            g.add_edge(u, copy)
        g.add_edge(copy, coordinator)
        if len(rerouted) == 1:
            # Edge subdivision: planarity-invariant, always kept.
            self.oracle.note_subdivision(copy, coordinator, rerouted[0])
            return True
        self.split_tests += 1
        if self.oracle.check_rerouted(copy, coordinator, rerouted):
            return True
        del adj[copy]
        for u, neighbors in snapshot.items():
            adj[u] = neighbors
        self.split_rejections += 1
        return False


def _external_boundary(
    ctx: RecursionContext, members: set[NodeId], ordered: list[NodeId]
) -> list:
    """Half-embedded edges from ``members`` (iterated in canonical order)
    toward the rest of the network."""
    boundary = []
    graph_adj = ctx.graph._adj
    for u in ordered:
        for x in graph_adj[u]:
            if x not in members:
                boundary.append((u, x))
    return boundary


def embed_subtree(
    ctx: RecursionContext, s: NodeId, level: int = 0, path: tuple = ()
) -> tuple[PartEmbedding, RoundMetrics]:
    """Embed the subgraph induced by the BFS subtree rooted at ``s``.

    Returns the part (its embedding has every half-embedded edge toward
    the outside on one face) and the round metrics of this call,
    including its parallel children.

    ``path`` is the call's position in the recursion tree (the j-th
    hanging child of a call at ``p`` runs at ``p + (j,)``) and doubles
    as the part ID of everything this call creates: the leaf/P0 parts
    take ``path`` itself and child parts take ``path + (j,)``, so the
    merged representative (the minimum ID) is again ``path``.  Position
    is a function of the input alone, not of allocation history, so the
    IDs (and the tie-breaks that read them) are reproducible run to run.

    When ``ctx.tracer`` is set, the call is wrapped in a ``call`` span
    (``parallel=True``: sibling calls embed vertex-disjoint parts, so
    their round totals combine as a max) containing a ``partition``
    phase span, the child call spans, and a ``merge`` span; the local
    ledger's observer is pointed at the tracer so real rounds and
    charges attribute themselves to whichever span is open.
    """
    tracer = ctx.tracer
    metrics = RoundMetrics()
    if tracer is not None:
        metrics.observer = tracer
    index = ctx.index
    size = index.subtree_size(s)
    if size == 1:
        part = fresh_part(
            Graph(nodes=[s]), _external_boundary(ctx, {s}, [s]), depth=0,
            part_id=path,
        )
        ctx.trace.append(
            CallRecord(level, s, 1, 0, 0, s, part_sizes=[])
        )
        if tracer is not None:
            with tracer.span(
                "call", kind="call", parallel=True, root=s, level=level, size=1
            ):
                pass
        return part, metrics

    with maybe_span(
        tracer, "call", kind="call", parallel=True,
        root=s, level=level, size=size,
    ) as call_span:
        # --- partition phase: real distributed subtree stats + token walk. --
        ordered = index.sort(index.subtree_span(s))
        tree_graph = Graph(nodes=ordered)
        tree_parent = ctx.tree.parent
        tree_children = ctx.tree.children
        parent: dict[NodeId, NodeId | None] = {}
        children: dict[NodeId, list[NodeId]] = {}
        # The convergecast/walk programs copy or only read child lists,
        # so the tree's own lists are threaded by reference.
        for v in ordered:
            p = tree_parent[v] if v != s else None
            parent[v] = p
            children[v] = tree_children[v]
            if p is not None:
                tree_graph.add_edge(v, p)
        with maybe_span(tracer, "partition", kind="phase"):
            stats = compute_subtree_stats(tree_graph, parent, children, metrics=metrics)
            if ctx.splitter_strategy == "balanced":
                splitter = find_splitter(
                    tree_graph, s, parent, children, metrics=metrics, stats=stats
                )
            else:
                # "root", the E12 ablation: no balancing — P0 degenerates to
                # the root alone, so hanging parts can keep ~all the vertices
                # and the recursion depth grows with the tree depth instead
                # of log n.
                splitter = s
            if tracer is not None:
                tracer.event(
                    "splitter",
                    root=s,
                    splitter=splitter,
                    strategy=ctx.splitter_strategy,
                    subtree_size=size,
                )
        p0_order = ctx.tree.path_to_descendant(s, splitter)
        p0_set = set(p0_order)
        hanging = {c for v in p0_order for c in children[v] if c not in p0_set}
        hanging_roots = index.sort(hanging)

        # --- parallel recursion on the hanging subtrees. ---------------------
        # The subtrees are vertex-disjoint, so their executions interleave
        # in the CONGEST model; the host runs them in canonical order and
        # the ledger charges the branches as a max.
        parts: list[PartEmbedding] = []
        branch_metrics: list[RoundMetrics] = []
        for j, w in enumerate(hanging_roots):
            part, branch = embed_subtree(ctx, w, level + 1, path + (j,))
            parts.append(part)
            branch_metrics.append(branch)
        metrics.absorb_parallel(branch_metrics, phase="recursion")

        # --- merge: P0 plus the hanging parts. --------------------------------
        p0_graph = Graph(nodes=p0_order)
        for a, b in zip(p0_order, p0_order[1:]):
            p0_graph.add_edge(a, b)
        p0_part = fresh_part(
            p0_graph,
            _external_boundary(ctx, p0_set, index.sort(p0_set)),
            depth=max(len(p0_order) - 1, 0),
            part_id=path,
        )
        with maybe_span(
            tracer, "merge", kind="merge",
            p0_length=len(p0_order), hanging_parts=len(parts),
        ) as merge_span:
            merged, merge_stats = unrestricted_path_merge(
                p0_part,
                p0_order,
                parts,
                metrics,
                bandwidth=ctx.bandwidth,
                split_validator=ctx.try_split,
            )
            if merge_span is not None:
                merge_span.attrs["final_instance_parts"] = merge_stats.final_instance_parts
                merge_span.attrs["merge_fallbacks"] = merge_stats.merge_fallbacks
        if call_span is not None:
            call_span.attrs["splitter"] = splitter
            call_span.attrs["p0_length"] = len(p0_order)
            call_span.attrs["hanging_parts"] = len(hanging_roots)

    ctx.trace.append(
        CallRecord(
            level=level,
            root=s,
            subtree_size=size,
            subtree_depth=index.subtree_depth(s),
            p0_length=len(p0_order),
            splitter=splitter,
            part_sizes=sorted((stats.size[w] for w in hanging_roots), reverse=True),
            merge_stats=merge_stats,
        )
    )
    return merged, metrics
