"""Part interfaces and their compressed skeletons (paper Section 3).

The *interface* of a part is the set of cyclic orders of its
half-embedded edges that admit a planar embedding of the part.
Observation 3.2: this set is exactly characterized by the part's
biconnected-component decomposition — each block's attachment order is
fixed up to a flip, and blocks permute freely around cut vertices.

The **skeleton** built here is this reproduction's analogue of the
paper's "compressed variant of PQ-trees that summarizes only essential
degrees of freedom" (full version §7.1.4).  It is a small planar graph
whose planar embeddings realize exactly the part's interface:

* every block that lies between attachments is replaced by a **wheel**
  through its attachment vertices in their fixed cyclic order — a wheel
  is 3-connected, so its embedding is rigid up to a mirror flip, exactly
  the block's freedom; the hub also blocks the interior, since nothing
  else may embed inside a block (the safety property puts all
  half-embedded edges on the part's single outer face);
* blocks with two relevant vertices become single edges (their order is
  trivially flippable);
* cut vertices are shared between their blocks' gadgets, giving the free
  permutation of blocks around them.

The skeleton's serialized size is measured in CONGEST words; this is the
payload a merge coordinator actually receives (experiment E10 shows it
scales with the boundary, not the part size).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..planar.biconnected import BiconnectedDecomposition, biconnected_components
from ..planar.graph import Graph, NodeId, sort_key
from ..planar.lr_planarity import NonPlanarGraphError, planar_embedding
from .parts import PartEmbedding

__all__ = ["InterfaceSkeleton", "SkeletonError", "interface_skeleton", "block_attachment_order"]

# A block's attachment order is a pure function of its (canonically
# sorted) edge set and the relevant vertices, and the same leaf blocks
# reappear in every ancestor merge up the recursion — so the apex
# embeds are memoized globally.  Capped against unbounded growth.
_BLOCK_ORDER_MEMO: dict[tuple, tuple] = {}
_BLOCK_ORDER_MAX_ENTRIES = 4096


class SkeletonError(RuntimeError):
    """The skeleton construction hit an inconsistent part embedding."""


@dataclass
class InterfaceSkeleton:
    """A part's compressed interface, ready to ship to a coordinator."""

    part_id: int
    graph: Graph  # attachment/cut vertices plus ("hub", ...) pseudo-vertices
    anchors: set[NodeId]  # the real part vertices present in the skeleton
    words: int  # serialized size in CONGEST words

    def encode(self) -> tuple:
        """Canonical wire encoding (what the words measure counts)."""
        return (
            self.part_id,
            tuple(sorted((repr(u), repr(v)) for u, v in self.graph.edges())),
        )


def block_attachment_order(block_graph: Graph, relevant: list[NodeId]) -> list[NodeId]:
    """The fixed cyclic order of ``relevant`` vertices around a block.

    Per Observation 3.2 (and Figure 2) the cyclic order in which a
    biconnected planar graph presents a set of co-facial vertices to the
    outside is unique up to a flip, so *any* embedding that makes them
    co-facial reveals it.  We embed the block plus an apex adjacent to
    the relevant vertices; the apex's rotation is the order.
    """
    if len(relevant) <= 2:
        return list(relevant)
    apex = ("rest",)
    augmented = block_graph.copy()
    for u in relevant:
        augmented.add_edge(apex, u)
    try:
        rotation = planar_embedding(augmented)
    except NonPlanarGraphError as exc:
        raise SkeletonError(
            "block attachments cannot be made co-facial; invalid part state"
        ) from exc
    return list(rotation.order(apex))


def _bc_tree_adjacency(
    decomposition: BiconnectedDecomposition,
) -> tuple[dict, dict]:
    """Adjacency of the block-cut tree as two maps (block->cuts, cut->blocks)."""
    cuts = decomposition.cut_vertices()
    block_to_cuts: dict = {}
    cut_to_blocks: dict = {c: [] for c in cuts}
    for component in decomposition.components:
        cid = component.component_id
        block_to_cuts[cid] = sorted(
            (v for v in component.vertices if v in cuts), key=sort_key
        )
        for v in block_to_cuts[cid]:
            cut_to_blocks[v].append(cid)
    return block_to_cuts, cut_to_blocks


def _steiner_nodes(
    terminals: set, block_to_cuts: dict, cut_to_blocks: dict
) -> set:
    """Nodes of the block-cut tree's Steiner subtree spanning ``terminals``.

    Tree nodes are tagged ``("block", cid)`` / ``("cut", v)``; terminals
    must be tagged the same way.  Computed by repeatedly pruning
    non-terminal leaves.
    """
    adjacency: dict = {}
    for cid, cuts in block_to_cuts.items():
        adjacency[("block", cid)] = [("cut", c) for c in cuts]
    for c, blocks in cut_to_blocks.items():
        adjacency[("cut", c)] = [("block", cid) for cid in blocks]
    alive = set(adjacency)
    degree = {t: len(adjacency[t]) for t in alive}
    leaves = [t for t in alive if degree[t] <= 1 and t not in terminals]
    while leaves:
        leaf = leaves.pop()
        if leaf not in alive or leaf in terminals:
            continue
        alive.discard(leaf)
        for nb in adjacency[leaf]:
            if nb in alive:
                degree[nb] -= 1
                if degree[nb] <= 1 and nb not in terminals:
                    leaves.append(nb)
    # Drop anything not connecting terminals (other components of the forest).
    if terminals:
        reachable: set = set()
        stack = [next(iter(terminals))]
        while stack:
            t = stack.pop()
            if t in reachable or t not in alive:
                continue
            reachable.add(t)
            stack.extend(nb for nb in adjacency[t] if nb in alive)
        alive = reachable
    return alive


def _smooth_chains(skeleton: Graph, keep: set) -> None:
    """Contract degree-2 connector vertices (non-attachments) to edges.

    Chains of blocks between attachments carry no embedding freedom, so
    the compressed summary replaces each by a single edge — this is what
    makes the skeleton size O(boundary) instead of O(part diameter).
    """
    changed = True
    while changed:
        changed = False
        for v in list(skeleton.nodes()):
            if v in keep or skeleton.degree(v) != 2:
                continue
            if isinstance(v, tuple) and len(v) == 3 and v[0] == "hub":
                continue
            a, b = skeleton.neighbors(v)
            skeleton.remove_node(v)
            if a != b:
                skeleton.add_edge(a, b)
            changed = True


def interface_skeleton(
    part: PartEmbedding,
    decomposition: BiconnectedDecomposition | None = None,
) -> InterfaceSkeleton:
    """Compress ``part`` to its interface skeleton (see module docstring).

    ``decomposition`` lets a caller share one biconnected decomposition
    of ``part.graph`` across several skeleton computations (a merge
    builds both the full and the reduced summary of each part).
    """
    attachments = part.attachments()
    skeleton = Graph()
    anchors: set[NodeId] = set()

    if len(attachments) <= 1:
        anchor = attachments[0] if attachments else part.graph.nodes()[0]
        skeleton.add_node(anchor)
        anchors.add(anchor)
        return InterfaceSkeleton(part.part_id, skeleton, anchors, words=2)

    if decomposition is None:
        decomposition = biconnected_components(part.graph)
    block_to_cuts, cut_to_blocks = _bc_tree_adjacency(decomposition)
    cuts = decomposition.cut_vertices()

    terminals: set = set()
    for u in attachments:
        if u in cuts:
            terminals.add(("cut", u))
        else:
            blocks = decomposition.components_of.get(u, [])
            if not blocks:  # pragma: no cover - connected multi-vertex part
                raise SkeletonError(f"attachment {u!r} lies in no block")
            terminals.add(("block", blocks[0]))
    steiner = _steiner_nodes(terminals, block_to_cuts, cut_to_blocks)

    attachment_set = set(attachments)
    for node in sorted(steiner, key=sort_key):
        kind, key = node
        if kind != "block":
            continue
        component = decomposition.component_by_id[key]
        relevant = sorted(
            {
                v
                for v in component.vertices
                if v in attachment_set
                or (v in cuts and ("cut", v) in steiner)
            },
            key=sort_key,
        )
        if len(relevant) <= 1:
            for v in relevant:
                skeleton.add_node(v)
                anchors.add(v)
            continue
        edges_sorted = tuple(sorted(component.edges, key=sort_key))
        memo_key = (edges_sorted, tuple(relevant))
        order = _BLOCK_ORDER_MEMO.get(memo_key)
        if order is None:
            block_graph = Graph()
            for u, v in edges_sorted:
                block_graph.add_edge(u, v)
            order = tuple(block_attachment_order(block_graph, relevant))
            if len(_BLOCK_ORDER_MEMO) >= _BLOCK_ORDER_MAX_ENTRIES:
                _BLOCK_ORDER_MEMO.clear()
            _BLOCK_ORDER_MEMO[memo_key] = order
        anchors.update(order)
        if len(order) == 2:
            skeleton.add_edge(order[0], order[1])
        else:
            hub = ("hub", part.part_id, repr(key))
            for i, v in enumerate(order):
                skeleton.add_edge(v, order[(i + 1) % len(order)])
                skeleton.add_edge(hub, v)

    # Ensure every attachment is present even if pruning removed its block.
    for u in attachments:
        skeleton.add_node(u)
        anchors.add(u)

    _smooth_chains(skeleton, attachment_set)
    anchors &= set(skeleton.nodes())

    if not skeleton.is_connected():  # pragma: no cover - invariant
        raise SkeletonError("skeleton is disconnected; Steiner reduction is buggy")

    # One word per vertex identifier on the wire: two per skeleton edge,
    # one per half-embedded edge slot, plus one framing word.
    words = 2 * skeleton.num_edges + len(part.boundary) + 1
    return InterfaceSkeleton(part.part_id, skeleton, anchors, words)
