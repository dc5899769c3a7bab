"""Re-attaching discharged parts and expanding split-off copies.

The unrestricted path-coordinated merge (paper Section 5.3) discharges
three kinds of parts early so they stop consuming bandwidth:

* step 2(c) **pendant parts** — connected to a single ``P0`` vertex and
  nothing else.  They deliver the order of their edges to that vertex and
  exit; geometrically they are islands that can live in any face corner
  at their anchor, so they are spliced back in at assembly time.
* steps 3-5 **two-terminal parts** — connected to exactly two ``P0``
  vertices ``i`` and ``j``.  All but the highest-ID such part exit; they
  re-enter side by side in a face containing both ``i`` and ``j``
  (step 4's ID-ordering rule makes the arrangement canonical without
  communication).
* step 2(e) **split-off copies** — secondary copies of a coordinator
  vertex adopted into parts to keep their diameter low.  At the end each
  copy is contracted back into its primary vertex (an embedded-edge
  contraction, which preserves planarity).

:func:`assemble` puts every discharged part back with one rotation
build: it copies the merged graph once, splices every part's edge
bundles into one ring map and genus-checks the result once.  Each
splice has a single candidate, and it is planar by construction:

* a part's boundary walk (:meth:`PartEmbedding.boundary_order`) is the
  clockwise ring of the part contracted to one vertex
  (:func:`~repro.planar.rotation.contracted_rotation`), and the two ends
  of a bundle of parallel edges rotate in opposite senses — so a bundle
  enters its terminal's ring reversed, as one consecutive block;
* an island fits any corner at its anchor, so every pendant goes into
  the corner after the anchor's first neighbor;
* a two-terminal piece whose walk is one run of edges to ``i`` and one
  to ``j`` (:func:`two_terminal_bundles`) fits any pair of corners of
  one face, so it goes into the first corners at ``i`` and ``j`` of the
  first face holding both whose stubs all stay on one side of the piece
  (else of the first face holding both).  The piece splits that face in
  two; a face whose stubs it separated would leave the merged part's
  half-edges on two faces, which no later merge can realize.

A splice that is not planar — possible only for parts that break those
invariants — fails the final check with :class:`AssemblyError`.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..planar.graph import Graph, NodeId
from ..planar.rotation import RotationSystem, trace_faces
from .parts import PartEmbedding, augment_with_stubs, is_stub

__all__ = [
    "AssemblyError",
    "assemble",
    "expand_copies",
    "is_copy",
    "two_terminal_bundles",
]


class AssemblyError(RuntimeError):
    """A splice produced a non-planar rotation system."""


def is_copy(node: NodeId) -> bool:
    return isinstance(node, tuple) and len(node) == 4 and node[0] == "copy"


def _add_part(graph: Graph, part: PartEmbedding, bundle_edges: list[tuple]) -> None:
    for v in part.graph.nodes():
        graph.add_node(v)
    for u, v in part.graph.edges():
        graph.add_edge(u, v)
    for u, x in bundle_edges:
        graph.add_edge(u, x)


def two_terminal_bundles(
    part: PartEmbedding, i: NodeId, j: NodeId
) -> tuple[list[NodeId], list[NodeId]] | None:
    """The part's i-bundle and j-bundle in boundary-walk order, or ``None``
    unless the walk is one run of edges to ``i`` and one run to ``j``
    (cyclically): the only walk a splice between ``i`` and ``j`` can
    place.  The unrestricted merge discharges only parts whose walk is.
    """
    walk = part.boundary_order()
    targets = [x for _, x in walk]
    k = len(walk)
    start = next(
        (idx for idx in range(k) if targets[idx] == i and targets[idx - 1] == j),
        None,
    )
    if start is None:
        return None
    rotated = walk[start:] + walk[:start]
    i_bundle = [u for u, x in rotated if x == i]
    j_bundle = [u for u, x in rotated if x == j]
    if [x for _, x in rotated] != [i] * len(i_bundle) + [j] * len(j_bundle):
        return None
    return i_bundle, j_bundle


def _keeps_stubs_together(face: list[tuple], i: NodeId, j: NodeId) -> bool:
    """Whether a piece spliced at the first corners of ``face`` at ``i``
    and at ``j`` leaves every stub of the face on one side of it."""
    a = next(k for k, (_, y) in enumerate(face) if y == i)
    b = next(k for k, (_, y) in enumerate(face) if y == j)
    lo, hi = sorted((a, b))
    return len({lo < k <= hi for k, (_, y) in enumerate(face) if is_stub(y)}) <= 1


def _spliced(ring: tuple, after: NodeId, bundle: list[NodeId]) -> tuple:
    """``ring`` with ``bundle`` reversed in right after ``after``."""
    pos = ring.index(after) + 1
    return ring[:pos] + tuple(reversed(bundle)) + ring[pos:]


def assemble(
    merged: PartEmbedding,
    pendants: Iterable[tuple[NodeId, PartEmbedding]] = (),
    two_terminal: Iterable[tuple[NodeId, NodeId, PartEmbedding]] = (),
) -> PartEmbedding:
    """Splice discharged parts into ``merged``: one build, one genus check.

    ``pendants`` are ``(anchor, part)`` pairs, every half-edge of ``part``
    ending at ``anchor``; they enter in the order given, each anchor's
    bundles side by side in its first corner, the latest first.
    ``two_terminal`` are ``(i, j, part)`` triples spliced after them in
    the order given, each into the first face (in ``trace_faces`` order of
    the rotation as spliced so far) that holds both ``i`` and ``j`` and
    keeps its stubs on one side, or else the first that holds both.
    Raises :class:`AssemblyError` when the result is not planar.
    """
    graph = merged.graph.copy()
    order = merged.rotation.as_dict()
    bundles: dict[NodeId, list[list[NodeId]]] = {}
    for anchor, part in pendants:
        if anchor not in graph:
            raise ValueError(f"anchor {anchor!r} not in merged part")
        if any(x != anchor for _, x in part.boundary):
            raise ValueError("pendant part has non-anchor half-edges")
        bundle = [u for u, _ in part.boundary_order()]
        _add_part(graph, part, [(u, anchor) for u in bundle])
        order.update(part.internal_rotations())
        bundles.setdefault(anchor, []).append(bundle)
    for anchor, group in bundles.items():
        ring = order[anchor]
        if not ring:  # a lone vertex: its first bundle becomes its ring
            ring, group = tuple(reversed(group[0])), group[1:]
        inserted = tuple(reversed([u for bundle in group for u in bundle]))
        order[anchor] = ring[:1] + inserted + ring[1:]

    for i, j, part in two_terminal:
        bundles = two_terminal_bundles(part, i, j)
        if bundles is None:
            raise AssemblyError(
                f"two-terminal boundary walk does not reach both {i!r} and {j!r}"
                " in one run each"
            )
        i_bundle, j_bundle = bundles
        faces = trace_faces(RotationSystem(augment_with_stubs(graph, merged.boundary), order))
        holding = [f for f in faces if {i, j} <= {u for u, _ in f}]
        if not holding:
            raise AssemblyError(f"no face contains both {i!r} and {j!r}")
        face = next((f for f in holding if _keeps_stubs_together(f, i, j)), holding[0])
        i_after = next(x for x, y in face if y == i)
        j_after = next(x for x, y in face if y == j)
        _add_part(graph, part, [(u, i) for u in i_bundle] + [(u, j) for u in j_bundle])
        order.update(part.internal_rotations())
        order[i] = _spliced(order[i], i_after, i_bundle)
        order[j] = _spliced(order[j], j_after, j_bundle)

    rotation = RotationSystem(augment_with_stubs(graph, merged.boundary), order)
    if not rotation.is_planar_embedding():
        raise AssemblyError("assembly produced a non-planar rotation system")
    return PartEmbedding(
        part_id=merged.part_id,
        graph=graph,
        boundary=merged.boundary,
        rotation=rotation,
        depth=merged.depth,
    )


def expand_copies(
    graph: Graph, order: dict[NodeId, tuple]
) -> tuple[Graph, dict[NodeId, tuple]]:
    """Contract every split-off copy back into its primary vertex.

    Each copy ``("copy", primary, part)`` is adjacent to its primary (the
    virtual star edge of step 2(e)) and to the part vertices whose edges
    to the primary were rerouted.  Contracting the embedded virtual edge
    splices the copy's ring into the primary's — the standard embedded
    edge contraction, planarity-preserving.
    """
    graph = graph.copy()
    order = dict(order)
    copies = sorted((v for v in graph.nodes() if is_copy(v)), key=repr)
    while copies:
        # Copies may nest (a second-iteration copy reroutes an earlier
        # copy's virtual edge); contract those whose primary edge is
        # already direct first — each pass unlocks the next layer.
        ready = [c for c in copies if c[1] in order[c]]
        if not ready:
            raise AssemblyError(f"copy nesting cycle among {copies!r}")
        c = ready[0]
        copies.remove(c)
        primary = c[1]
        ring_c = list(order[c])
        k = ring_c.index(primary)
        spliced = ring_c[k + 1 :] + ring_c[:k]
        ring_p = list(order[primary])
        kp = ring_p.index(c)
        order[primary] = tuple(ring_p[:kp] + spliced + ring_p[kp + 1 :])
        for u in spliced:
            ring_u = list(order[u])
            order[u] = tuple(primary if x == c else x for x in ring_u)
            graph.add_edge(u, primary)
        graph.remove_node(c)
        del order[c]
    return graph, order
