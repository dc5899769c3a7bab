"""The trivial O(n)-round baseline (paper footnote 2).

"Any graph problem can be solved in O(m) rounds in the CONGEST model,
simply by gathering the whole network topology and solving the problem
locally, and in planar graphs, this is O(m) = O(n) rounds."

The baseline implemented here is that algorithm, costed honestly:

1. leader election + BFS (real message passing, O(D) rounds);
2. every node's adjacency list (1 + deg(v) words) convergecasts to the
   root; the root's bottleneck child-edge must carry every word produced
   in its subtree, so the gather finishes in
   ``depth + max_child_subtree_words / bandwidth`` rounds — Θ(n) for a
   planar graph whatever the tree shape;
3. the root embeds locally with the LR kernel (our [HT74] stand-in) and
   broadcasts each vertex's rotation back down at the same pipelined
   cost.

Experiment E2 races this against the Theorem 1.1 algorithm.
"""

from __future__ import annotations

import math

from ..congest.metrics import RoundMetrics
from ..planar.graph import Graph, NodeId
from ..planar.lr_planarity import NonPlanarGraphError, planar_embedding
from ..planar.rotation import RotationSystem
from ..primitives.bfs import build_bfs_tree
from ..primitives.leader import elect_leader
from .algorithm import EmbeddingResult, _wrap, check_network
from .parts import NonPlanarNetworkError

__all__ = ["trivial_baseline_embedding"]


def _subtree_words(
    tree_children: dict[NodeId, list[NodeId]], words: dict[NodeId, int], root: NodeId
) -> dict[NodeId, int]:
    """Total words produced inside each subtree (iterative post-order)."""
    totals: dict[NodeId, int] = {}
    stack = [(root, False)]
    while stack:
        v, processed = stack.pop()
        if processed:
            totals[v] = words[v] + sum(totals[c] for c in tree_children.get(v, ()))
        else:
            stack.append((v, True))
            for c in tree_children.get(v, ()):
                stack.append((c, False))
    return totals


def trivial_baseline_embedding(graph: Graph, bandwidth_words: int = 1) -> EmbeddingResult:
    """Run the gather-and-solve baseline; same result type as the algorithm."""
    check_network(graph)
    metrics = RoundMetrics()
    if graph.num_nodes == 1:
        (v,) = graph.nodes()
        rotation = {v: ()}
        return EmbeddingResult(
            graph=graph,
            rotation=rotation,
            rotation_system=RotationSystem(graph, rotation),
            metrics=metrics,
            leader=v,
        )

    ranked, ids = _wrap(graph)
    leader = elect_leader(ranked, metrics=metrics)
    tree = build_bfs_tree(ranked, leader, metrics=metrics)

    # Gather: each node contributes its ID plus neighbor list.
    words_of = {v: 1 + ranked.degree(v) for v in ranked.nodes()}
    totals = _subtree_words(tree.children, words_of, leader)
    bottleneck = max(
        (totals[c] for c in tree.children.get(leader, ())), default=0
    )
    gather_rounds = tree.depth + math.ceil(bottleneck / bandwidth_words)
    metrics.charge(
        "baseline:gather",
        gather_rounds,
        words=sum(words_of.values()),
        detail=f"n+2m={sum(words_of.values())} words to root",
    )

    # Local solve at the root (unbounded local computation).
    try:
        system = planar_embedding(graph)
    except NonPlanarGraphError as exc:
        raise NonPlanarNetworkError("network is not planar") from exc

    # Scatter: every vertex receives its own rotation (deg(v) + 1 words).
    scatter_rounds = tree.depth + math.ceil(bottleneck / bandwidth_words)
    metrics.charge(
        "baseline:scatter",
        scatter_rounds,
        words=sum(words_of.values()),
        detail="rotations broadcast back",
    )

    rotation = system.as_dict()
    return EmbeddingResult(
        graph=graph,
        rotation=rotation,
        rotation_system=system,
        metrics=metrics,
        leader=ids[leader],
        bfs_depth=tree.depth,
    )
