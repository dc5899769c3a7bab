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
  through its attachment vertices in their fixed cyclic order, read off
  the part's outer face (:func:`face_wheels`) — a wheel
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
from ..planar.graph import Graph, NodeId, edge_id
from .parts import PartEmbedding, is_stub

__all__ = ["InterfaceSkeleton", "SkeletonError", "face_wheels", "interface_skeleton",
           "skeleton_edge_count", "steiner_blocks"]

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


def _smooth_chains(skeleton: Graph, keep: set) -> None:
    """Contract degree-2 connector vertices (non-attachments) to edges.

    Chains of blocks between attachments carry no embedding freedom, so
    the compressed summary replaces each by a single edge — this is what
    makes the skeleton size O(boundary) instead of O(part diameter).

    One pass finds every such vertex.  Contracting ``v`` between ``a``
    and ``b`` leaves every other degree unchanged: ``a`` and ``b`` trade
    ``v`` for each other, and they are never already adjacent, because
    the skeleton's blocks and cut vertices form a tree.  So no vertex
    becomes contractible after the pass has looked at it.
    """
    for v in list(skeleton.nodes()):
        if v in keep or skeleton.degree(v) != 2:
            continue
        if isinstance(v, tuple) and len(v) == 3 and v[0] == "hub":
            continue
        a, b = skeleton.neighbors(v)
        skeleton.remove_node(v)
        skeleton.add_edge(a, b)


def steiner_blocks(attachments: set, decomposition: BiconnectedDecomposition) -> dict:
    """The blocks of the block-cut tree's Steiner subtree spanning
    ``attachments``, each mapped to its *relevant* vertices: its
    attachments and the cut vertices it shares with another Steiner block.

    A terminal is ``("cut", u)`` for a cut-vertex attachment and
    ``("block", b)`` for an attachment inside the one block ``b``.  A
    breadth-first walk from one terminal keeps parent pointers and stops
    once every terminal is reached; the Steiner subtree is the union of
    the terminals' paths back to it, and its edges are parent pointers.
    One attachment spans no block; ``decomposition`` is then unread.
    """
    if len(attachments) <= 1:
        return {}
    components_of = decomposition.components_of
    terminals = set()
    for u in attachments:
        blocks = components_of.get(u)
        if not blocks:  # pragma: no cover - connected multi-vertex part
            raise SkeletonError(f"attachment {u!r} lies in no block")
        terminals.add(("cut", u) if len(blocks) > 1 else ("block", blocks[0]))
    root = next(iter(terminals))
    parent = {root: None}
    queue, missing = [root], len(terminals) - 1
    for kind, key in queue:
        if not missing:
            break
        if kind == "block":
            vertices = decomposition.component_by_id[key].vertices
            near = [("cut", v) for v in vertices if len(components_of[v]) > 1]
        else:
            near = [("block", b) for b in components_of[key]]
        for node in near:
            if node not in parent:
                parent[node] = (kind, key)
                missing -= node in terminals
                queue.append(node)
    steiner: set = set()
    for node in terminals:
        while node is not None and node not in steiner:
            steiner.add(node)
            node = parent[node]
    relevant = {key: set() for kind, key in steiner if kind == "block"}
    for node in steiner:  # each tree edge joins a cut vertex and a block
        up = parent[node]
        if up is not None:
            cut, block = (node[1], up[1]) if node[0] == "cut" else (up[1], node[1])
            relevant[block].add(cut)
    for u in attachments:
        if len(components_of[u]) == 1:
            relevant[components_of[u][0]].add(u)
    return relevant


def face_wheels(face: list, steiner: dict, decomposition: BiconnectedDecomposition) -> dict:
    """The wheel of each Steiner block with ``r >= 3`` relevant vertices:
    those vertices in the order ``face``, the part's outer face, meets
    them as heads of the block's darts.

    Sound by Observation 3.2 and the safety property.  A Steiner block lies
    between two outer-face attachments, so no block hanging off one cut
    vertex can enclose it, or one of its sides would have no outer
    attachment; its relevant vertices therefore sit on its own outer face,
    which the part's outer face runs along (realization's argument,
    :mod:`repro.core.realize`), each once.  Observation 3.2 makes their
    cyclic order unique up to a flip.
    """
    wheels = {b: [] for b, relevant in steiner.items() if len(relevant) >= 3}
    if not wheels:
        return wheels
    block_of = decomposition.component_of_edge
    wanted = set().union(*(steiner[b] for b in wheels))
    for u, v in face:
        if v in wanted and not is_stub(u):
            b = block_of[edge_id(u, v)]
            if b in wheels and v in steiner[b]:
                wheels[b].append(v)
    for b, wheel in wheels.items():
        if len(wheel) != len(steiner[b]):
            raise SkeletonError(
                "block attachments are not on the part's outer face; invalid part state"
            )
    return wheels


def skeleton_edge_count(
    attachments: set, steiner: dict | None, decomposition: BiconnectedDecomposition | None
) -> int:
    """Edges of the skeleton over ``attachments``, counted without building it.

    ``steiner`` is :func:`steiner_blocks` over a superset of ``attachments``;
    dropping leaves that are no terminal of ``attachments`` until none is
    left gives theirs, with no second walk of the block-cut tree.  A Steiner
    block with ``r`` relevant vertices gives one edge (``r = 2``)
    or a wheel of ``2r`` (``r >= 3``); smoothing then removes one edge per
    non-attachment of skeleton degree 2, a cut vertex between exactly two
    one-edge blocks.  Nothing else is read for one attachment.
    """
    if len(attachments) <= 1:
        return 0
    components_of = decomposition.components_of
    near = {("block", b): {("cut", v) for v in vs if len(components_of[v]) > 1}
            for b, vs in steiner.items()}
    for block, cuts in list(near.items()):
        for cut in cuts:
            near.setdefault(cut, set()).add(block)
    terminals = {
        ("cut", u) if len(components_of[u]) > 1 else ("block", components_of[u][0])
        for u in attachments
    }
    leaves = [node for node, nb in near.items() if len(nb) <= 1 and node not in terminals]
    while leaves:
        node = leaves.pop()
        for other in near.pop(node, ()):
            near[other].discard(node)
            if len(near[other]) <= 1 and other not in terminals:
                leaves.append(other)
    edges, degree = 0, {}
    for (kind, b), nb in near.items():
        if kind == "cut":
            continue
        relevant = [v for v in steiner[b] if v in attachments or ("cut", v) in nb]
        r = len(relevant)
        if r >= 2:
            edges += 1 if r == 2 else 2 * r
            for v in relevant:
                degree[v] = degree.get(v, 0) + (1 if r == 2 else 3)
    return edges - sum(d == 2 and v not in attachments for v, d in degree.items())


def interface_skeleton(
    part: PartEmbedding,
    decomposition: BiconnectedDecomposition | None = None,
    face: list | None = None,
    steiner: dict | None = None,
) -> InterfaceSkeleton:
    """Compress ``part`` to its interface skeleton (see module docstring).

    ``decomposition`` lets a caller share one biconnected decomposition
    of ``part.graph``, ``face`` one trace of the part's outer face from
    where :meth:`~repro.core.parts.PartEmbedding.outer_face` starts it,
    and ``steiner`` its :func:`steiner_blocks` over the part's
    attachments (a merge shares all three with the reduced summary's word
    count and with the realization).
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
    attachment_set = set(attachments)
    if steiner is None:
        steiner = steiner_blocks(attachment_set, decomposition)
    wheels = face_wheels(part.outer_face() if face is None else face, steiner, decomposition)
    for key in sorted(steiner, key=repr):
        relevant = sorted(steiner[key], key=repr)
        if len(relevant) <= 1:
            for v in relevant:
                skeleton.add_node(v)
                anchors.add(v)
            continue
        order = wheels.get(key, relevant)
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
