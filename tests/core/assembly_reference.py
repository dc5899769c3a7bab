"""Test-local reference for assembly: the one-splice-at-a-time splicers.

These are the splice functions as the unrestricted merge first used
them.  Each call copies the merged part, rebuilds and re-validates its
whole :class:`RotationSystem`, traces every face for a genus check and
tries up to two (pendant) or eight (two-terminal) candidate chiralities.
The shipped :func:`repro.core.assembly.assemble` splices every discharged
part into one ring map and checks it once; ``test_assembly_differential.py``
holds it to this reference: equal rotation tuples and equal graph edge
order, unit by unit and through the whole pipeline.
"""

from __future__ import annotations

from repro.core.assembly import AssemblyError
from repro.core.parts import PartEmbedding, is_stub, stub_node
from repro.planar.graph import Graph, NodeId
from repro.planar.rotation import RotationSystem, trace_faces


def _rebuild(
    merged: PartEmbedding, graph: Graph, order: dict[NodeId, tuple]
) -> PartEmbedding:
    augmented = graph.copy()
    for h in merged.boundary:
        augmented.add_edge(h[0], stub_node(h))
        order[stub_node(h)] = (h[0],)
    rotation = RotationSystem(augmented, order)
    if not rotation.is_planar_embedding():
        raise AssemblyError("splice produced a non-planar rotation system")
    return PartEmbedding(
        part_id=merged.part_id,
        graph=graph,
        boundary=merged.boundary,
        rotation=rotation,
        depth=merged.depth,
    )


def _merged_orders(merged: PartEmbedding) -> dict[NodeId, tuple]:
    return {
        v: merged.rotation.order(v)
        for v in merged.rotation.graph.nodes()
        if not is_stub(v)
    }


def _part_orders(part: PartEmbedding, resolve: dict[NodeId, NodeId]) -> dict[NodeId, tuple]:
    """The part's rotations with its stubs resolved to real anchors."""
    orders = {}
    for v in part.graph.nodes():
        ring = []
        for u in part.rotation.order(v):
            if is_stub(u):
                ring.append(resolve[(u[1], u[2])])
            else:
                ring.append(u)
        orders[v] = tuple(ring)
    return orders


def insert_pendant(
    merged: PartEmbedding, anchor: NodeId, pendant: PartEmbedding
) -> PartEmbedding:
    """Splice a pendant part (all half-edges to ``anchor``) into ``merged``."""
    if anchor not in merged.graph:
        raise ValueError(f"anchor {anchor!r} not in merged part")
    bundle = [u for u, x in pendant.boundary_order()]
    if any(x != anchor for _, x in pendant.boundary):
        raise ValueError("pendant part has non-anchor half-edges")

    graph = merged.graph.copy()
    for v in pendant.graph.nodes():
        graph.add_node(v)
    for u, v in pendant.graph.edges():
        graph.add_edge(u, v)
    for u in bundle:
        graph.add_edge(u, anchor)

    base = _merged_orders(merged)
    resolve = {(u, anchor): anchor for u in bundle}
    pend = _part_orders(pendant, resolve)

    anchor_ring = list(merged.rotation.order(anchor))
    for candidate in (list(reversed(bundle)), list(bundle)):
        order = dict(base)
        order.update(pend)
        order[anchor] = tuple(anchor_ring[:1] + candidate + anchor_ring[1:]) if anchor_ring else tuple(candidate)
        try:
            return _rebuild(merged, graph, order)
        except AssemblyError:
            continue
    raise AssemblyError("pendant insertion failed in both orientations")


def _face_corner(
    rotation: RotationSystem, face: list[tuple[NodeId, NodeId]], v: NodeId
) -> tuple[NodeId, NodeId]:
    """A corner of ``face`` at ``v``: (a, b) with b clockwise-after a at v."""
    for x, y in face:
        if y == v:
            return (x, rotation.next_after(v, x))
    raise ValueError(f"{v!r} not on face")


def _split_two_terminal(
    part: PartEmbedding, i: NodeId, j: NodeId
) -> tuple[list[NodeId], list[NodeId]]:
    """Split the part's boundary walk into its i-bundle and j-bundle.

    The walk must be non-interleaved (i-edges consecutive) — guaranteed
    when the part was realized against a coordinator instance containing
    both terminals.
    """
    walk = part.boundary_order()
    targets = [x for _, x in walk]
    k = len(walk)
    start = None
    for idx in range(k):
        if targets[idx] == i and targets[(idx - 1) % k] == j:
            start = idx
            break
    if start is None:
        if all(t == i for t in targets):
            return [u for u, _ in walk], []
        if all(t == j for t in targets):
            return [], [u for u, _ in walk]
        raise AssemblyError("two-terminal boundary walk is interleaved")
    rotated = [walk[(start + t) % k] for t in range(k)]
    i_bundle = [u for u, x in rotated if x == i]
    j_bundle = [u for u, x in rotated if x == j]
    if [x for _, x in rotated] != [i] * len(i_bundle) + [j] * len(j_bundle):
        raise AssemblyError("two-terminal boundary walk is interleaved")
    return i_bundle, j_bundle


def insert_two_terminal(
    merged: PartEmbedding, i: NodeId, j: NodeId, part: PartEmbedding
) -> PartEmbedding:
    """Splice an (i, j)-part into a face of ``merged`` containing both."""
    i_bundle, j_bundle = _split_two_terminal(part, i, j)
    if not j_bundle:
        return insert_pendant(merged, i, part)
    if not i_bundle:
        return insert_pendant(merged, j, part)

    face = None
    for f in trace_faces(merged.rotation):
        on_face = {u for u, _ in f}
        if i in on_face and j in on_face:
            face = f
            break
    if face is None:
        raise AssemblyError(f"no face contains both {i!r} and {j!r}")
    ia, ib = _face_corner(merged.rotation, face, i)
    ja, jb = _face_corner(merged.rotation, face, j)

    graph = merged.graph.copy()
    for v in part.graph.nodes():
        graph.add_node(v)
    for u, v in part.graph.edges():
        graph.add_edge(u, v)
    for u in i_bundle:
        graph.add_edge(u, i)
    for u in j_bundle:
        graph.add_edge(u, j)

    base = _merged_orders(merged)
    resolve = {(u, i): i for u in i_bundle}
    resolve.update({(u, j): j for u in j_bundle})
    inner = _part_orders(part, resolve)

    def ring_with(ring: tuple, after: NodeId, bundle: list[NodeId]) -> tuple:
        lst = list(ring)
        pos = lst.index(after) + 1
        return tuple(lst[:pos] + bundle + lst[pos:])

    i_ring = merged.rotation.order(i)
    j_ring = merged.rotation.order(j)
    mirror_inner = {v: tuple(reversed(r)) for v, r in inner.items()}
    candidates = (
        (inner, list(reversed(i_bundle)), list(reversed(j_bundle))),
        (inner, list(i_bundle), list(j_bundle)),
        (mirror_inner, list(reversed(i_bundle)), list(reversed(j_bundle))),
        (mirror_inner, list(i_bundle), list(j_bundle)),
        (inner, list(reversed(i_bundle)), list(j_bundle)),
        (inner, list(i_bundle), list(reversed(j_bundle))),
        (mirror_inner, list(reversed(i_bundle)), list(j_bundle)),
        (mirror_inner, list(i_bundle), list(reversed(j_bundle))),
    )
    for inner_orders, ib_bundle, jb_bundle in candidates:
        order = dict(base)
        order.update(inner_orders)
        order[i] = ring_with(i_ring, ia, ib_bundle)
        order[j] = ring_with(j_ring, ja, jb_bundle)
        try:
            return _rebuild(merged, graph, order)
        except AssemblyError:
            continue
    raise AssemblyError("two-terminal insertion failed in all orientations")
