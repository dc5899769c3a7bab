"""The LR-based block orders and the pruned block-cut Steiner tree that
``repro.core.interface`` used before it read wheels off the part's outer
face and walked the block-cut tree with parent pointers.

Kept verbatim as the reference the differentials in
``tests/core/test_interface.py`` hold the library to:

* :func:`block_attachment_order` embeds a block plus an apex adjacent to
  its relevant vertices with the LR kernel; the apex's rotation is their
  cyclic order (Observation 3.2, Figure 2);
* :func:`reference_steiner` builds the whole block-cut tree as tagged
  adjacency maps and prunes non-terminal leaves.
"""

from __future__ import annotations

from repro.core.interface import SkeletonError
from repro.planar.biconnected import BiconnectedDecomposition
from repro.planar.graph import Graph, NodeId
from repro.planar.lr_planarity import NonPlanarGraphError, planar_embedding


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


def block_graph_of(decomposition: BiconnectedDecomposition, key) -> Graph:
    """Block ``key`` as a graph, its edges inserted in ``repr`` order (as
    the skeleton built it for :func:`block_attachment_order`)."""
    block_graph = Graph()
    for u, v in sorted(decomposition.component_by_id[key].edges, key=repr):
        block_graph.add_edge(u, v)
    return block_graph


def _bc_tree_adjacency(
    decomposition: BiconnectedDecomposition,
) -> tuple[dict, dict]:
    """Adjacency of the block-cut tree as two maps (block->cuts, cut->blocks)."""
    cuts = decomposition.cut_vertices()
    block_to_cuts: dict = {}
    cut_to_blocks: dict = {c: [] for c in cuts}
    for component in decomposition.components:
        cid = component.component_id
        block_to_cuts[cid] = [v for v in component.vertices if v in cuts]
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


def reference_steiner(attachments: set, decomposition: BiconnectedDecomposition) -> tuple[set, dict]:
    """The block-cut Steiner subtree spanning ``attachments`` (>= 2), and the
    *relevant* vertices of each of its blocks: attachments and Steiner cuts."""
    block_to_cuts, cut_to_blocks = _bc_tree_adjacency(decomposition)
    terminals: set = set()
    for u in attachments:
        blocks = decomposition.components_of.get(u, [])
        if not blocks:  # pragma: no cover - connected multi-vertex part
            raise SkeletonError(f"attachment {u!r} lies in no block")
        terminals.add(("cut", u) if u in cut_to_blocks else ("block", blocks[0]))
    steiner = _steiner_nodes(terminals, block_to_cuts, cut_to_blocks)
    relevant = {}
    for kind, key in steiner:
        if kind == "block":
            vertices = decomposition.component_by_id[key].vertices
            relevant[key] = {v for v in vertices if v in attachments or ("cut", v) in steiner}
    return steiner, relevant
