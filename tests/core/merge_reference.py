"""Test-local reference for merges: the gadget realizer and the second skeleton.

These are the functions the skeleton merge first used.  The realizer
re-embeds the whole part plus a rim/hub gadget with the LR kernel on
every call; the reduced summary builds a second interface skeleton only
to count its edges.  The shipped :func:`repro.core.realize.realize_boundary_order`
applies block flips and cut-vertex permutations to the part's own
rotation, and :mod:`repro.core.merges` counts the reduced words from the
shared decomposition; ``test_merge_differential.py`` holds both to this
reference: the same verdicts and walks, the same words, the same ledgers.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.interface import interface_skeleton
from repro.core.parts import (
    HalfEdge,
    PartEmbedding,
    augment_with_stubs,
    embed_with_boundary,
    stub_node,
)
from repro.core.realize import RealizationError, cyclic_equal
from repro.planar.lr_planarity import NonPlanarGraphError, planar_embedding
from repro.planar.rotation import RotationSystem


def realize_boundary_order(
    part: PartEmbedding, prescribed: Sequence[HalfEdge]
) -> RotationSystem:
    """A rotation of ``part`` whose boundary walk equals ``prescribed``.

    ``prescribed`` must be a permutation of the part's boundary.  Raises
    :class:`RealizationError` if the order is outside the part's
    interface (which, when the order came from a faithful skeleton,
    indicates a bug: :func:`~repro.core.merges.merge_parts` lets it
    propagate as an internal error).
    """
    if sorted(prescribed, key=repr) != sorted(part.boundary, key=repr):
        raise ValueError("prescribed order is not a permutation of the boundary")
    m = len(prescribed)
    if m <= 2:
        # Any cyclic order of <= 2 half-edges is the same; any co-facial
        # embedding (either chirality: a 2-attachment island can mirror
        # freely) realizes it.
        return embed_with_boundary(part.graph, part.boundary)

    gadget = part.graph.copy()
    rim = [("c", i) for i in range(m)]
    hub = ("ghub",)
    for i, half_edge in enumerate(prescribed):
        u, _ = half_edge
        gadget.add_edge(u, rim[i])
        gadget.add_edge(rim[i], rim[(i + 1) % m])
        gadget.add_edge(hub, rim[i])
    try:
        rotation = planar_embedding(gadget)
    except NonPlanarGraphError as exc:
        raise RealizationError(
            f"prescribed boundary order of part {part.part_id} is not realizable"
        ) from exc

    # Extract the part rotation: rim vertex c_i becomes the stub of the
    # i-th prescribed half-edge.
    stub_of_rim = {rim[i]: stub_node(prescribed[i]) for i in range(m)}
    augmented = augment_with_stubs(part.graph, part.boundary)
    order = {}
    for v in part.graph.nodes():
        ring = []
        for u in rotation.order(v):
            if u in stub_of_rim:
                ring.append(stub_of_rim[u])
            elif u == hub or (isinstance(u, tuple) and len(u) == 2 and u[0] == "c"):
                continue  # pragma: no cover - rim/hub only touch attachments
            else:
                ring.append(u)
        order[v] = tuple(ring)
    for half_edge in part.boundary:
        order[stub_node(half_edge)] = (half_edge[0],)
    realized = RotationSystem.trusted(augmented, order)

    # Chirality normalization: the gadget forces the order up to a global
    # mirror; make the boundary walk match ``prescribed`` exactly so that
    # sibling parts realized against one coordinator embedding compose.
    walk = part.with_rotation(realized).boundary_order()
    if cyclic_equal(walk, list(prescribed)):
        return realized
    mirrored = realized.mirrored()
    walk_m = part.with_rotation(mirrored).boundary_order()
    if cyclic_equal(walk_m, list(prescribed)):
        return mirrored
    raise RealizationError(
        f"gadget produced boundary order {walk!r} incompatible with "
        f"prescription {list(prescribed)!r}"
    )


def _reduced_summary_words(
    p: PartEmbedding, connecting_set: set, decomposition=None
) -> int:
    """Words of the *merge-relevant* compressed summary of ``p``.

    Following the paper's compressed PQ-trees ("summarizes only essential
    degrees of freedom", full version §7.1.4), a merge only needs: the
    part's half-edges participating in this merge, the block structure
    *between* their attachments, and one token per maximal run of
    non-participating boundary between consecutive participating slots —
    the identities inside a run are irrelevant to the coordinator's
    choice and stay distributed.  This is what actually crosses the
    (capacity-restricted) coordinator edges; the detailed alignment of a
    run's own half-edges is settled by the later merge that consumes it.
    """
    participating = [h for h in p.boundary if frozenset(h) in connecting_set]
    if not participating:
        return 2
    # runs of non-participating half-edges between participating slots
    walk = p.boundary_order()
    runs = 0
    prev_participating = frozenset(walk[-1]) in connecting_set
    for h in walk:
        is_p = frozenset(h) in connecting_set
        if not is_p and prev_participating:
            runs += 1
        prev_participating = is_p
    reduced = PartEmbedding(
        part_id=p.part_id,
        graph=p.graph,
        boundary=participating,
        rotation=p.rotation,  # its outer face holds the participating stubs
        depth=p.depth,
    )
    sk_edges = interface_skeleton(reduced, decomposition=decomposition).graph.num_edges
    return 2 * sk_edges + len(participating) + runs + 1
