"""Merging partial embeddings (paper Section 5).

All four merging patterns — pairwise, star, vertex-coordinated and
(restricted) path-coordinated — share the same information flow, which
:func:`merge_parts` implements:

1. every part compresses itself to its interface skeleton and ships it
   toward the coordinator (*gather*; words measured from the actual
   serialized skeletons);
2. the coordinator solves the arrangement *locally* (unbounded local
   computation, the CONGEST allowance): it embeds the union of the
   skeletons, plus the connecting half-embedded edges between the merging
   parts, plus a single virtual ``rest`` vertex standing for the
   connected remainder of the network (the safety property, Figure 1(b));
3. each part receives the cyclic order its half-embedded edges must take
   (*scatter*; words measured) and realizes it internally via block
   flips / permutations (:mod:`repro.core.realize`);
4. the realized parts and connecting edges assemble into the merged
   part, which is verified at its glue (:func:`_check_glue`: genus 0 and
   the new boundary co-facial, from the parts' stub cycles alone).

The patterns differ only in *which* paths the gather/scatter traffic
takes, i.e. in the round charge: :func:`charge_merge_stage` charges a
stage of parallel vertex-coordinated merges (the cluster, V-star and
chain stages of :mod:`repro.core.unrestricted`) and
:func:`charge_path_coordinated_merge` the final merge along ``P0``, both
from measured part depths and payload sizes via
:func:`~repro.congest.pipelining.stream_rounds`.

On a safe partition (Definition 3.1) the coordinator's instance is
planar exactly when the parts admit a planar arrangement (Observation
3.2), so a non-planar instance is the verdict: :func:`merge_parts` raises
:class:`NonPlanarNetworkError`.  Any other failure of the four steps
(:class:`SkeletonError`, :class:`RealizationError`, :class:`RotationError`,
:class:`EmbeddingViolation`) is an internal error and propagates as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..congest.metrics import RoundMetrics
from ..congest.pipelining import stream_rounds
from ..planar.graph import Graph, NodeId
from ..planar.lr_planarity import NonPlanarGraphError, planar_embedding
from ..planar.rotation import RotationError, RotationSystem, contracted_rotation
from ..planar.verify import EmbeddingViolation
from ..planar.biconnected import biconnected_components
from .interface import interface_skeleton, skeleton_edge_count, steiner_blocks
from .parts import (
    HalfEdge,
    NonPlanarNetworkError,
    PartEmbedding,
    augment_with_stubs,
    graph_depth,
    is_stub,
    stub_node,
)
from .realize import realize_boundary_order

__all__ = [
    "MergeResult",
    "merge_parts",
    "charge_merge_stage",
    "charge_path_coordinated_merge",
]

_REST = ("rest",)


@dataclass
class MergeResult:
    """The merged part plus the measured communication of the merge."""

    part: PartEmbedding
    up_words: dict[int, int] = field(default_factory=dict)  # per source part
    down_words: dict[int, int] = field(default_factory=dict)
    part_depths: dict[int, int] = field(default_factory=dict)
    attachment_edges: dict[int, int] = field(default_factory=dict)  # parallel lanes per part

    @property
    def total_up(self) -> int:
        return sum(self.up_words.values())

    @property
    def total_down(self) -> int:
        return sum(self.down_words.values())


def _union_graph_and_boundary(
    parts: list[PartEmbedding],
) -> tuple[Graph, list[HalfEdge], list[tuple[NodeId, NodeId]], dict]:
    """The merged graph, its external boundary, connecting edges and owners."""
    owner: dict[NodeId, int] = {}
    for p in parts:
        for v in p.graph.nodes():
            if v in owner:
                raise ValueError(f"parts are not disjoint at {v!r}")
            owner[v] = p.part_id
    union = Graph()
    for p in parts:
        for v in p.graph.nodes():
            union.add_node(v)
        for u, v in p.graph.edges():
            union.add_edge(u, v)
    connecting: list[tuple[NodeId, NodeId]] = []
    seen: set[tuple] = set()
    new_boundary: list[HalfEdge] = []
    for p in parts:
        for u, x in p.boundary:
            if x in owner:
                key = (u, x) if repr(u) < repr(x) else (x, u)
                if key not in seen:
                    seen.add(key)
                    connecting.append(key)
                    union.add_edge(u, x)
            else:
                new_boundary.append((u, x))
    return union, new_boundary, connecting, owner


def merge_parts(parts: list[PartEmbedding]) -> MergeResult:
    """Merge ``parts`` (>= 1, mutually connected or not) into one part.

    The partition must be safe (Definition 3.1): the network minus any
    one part stays connected.  Raises :class:`NonPlanarNetworkError` when
    the coordinator's instance is non-planar, i.e. no planar arrangement
    exists.  An unsafe partition may fail any check of the module
    docstring's four steps; the first that fails raises.
    """
    if not parts:
        raise ValueError("nothing to merge")
    if len(parts) == 1:
        p = parts[0]
        return MergeResult(part=p, part_depths={p.part_id: p.depth})

    union, new_boundary, connecting, owner = _union_graph_and_boundary(parts)
    # Each part is connected, so the union is iff the graph of the parts is.
    linked: dict = {p.part_id: set() for p in parts}
    for u, x in connecting:
        linked[owner[u]].add(owner[x])
        linked[owner[x]].add(owner[u])
    reached, stack = {parts[0].part_id}, [parts[0].part_id]
    while stack:
        new = linked[stack.pop()] - reached
        reached |= new
        stack += new
    if len(reached) < len(parts):
        raise ValueError("merged parts must be connected via half-embedded edges")

    result = MergeResult(part=None)  # type: ignore[arg-type]
    result.part_depths = {p.part_id: p.depth for p in parts}
    result.attachment_edges = {
        p.part_id: max(1, sum(x in owner for _, x in p.boundary)) for p in parts
    }
    result.part = _skeleton_merge(parts, union, new_boundary, connecting, owner, result)
    return result


def _reduced_summary_words(
    p: PartEmbedding, connecting_set: set, face: list, decomposition=None, steiner=None
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
    The block structure is the skeleton over the participating
    attachments, counted from the part's ``steiner`` blocks unbuilt.
    The runs are read off ``face``, the part's outer face
    (:meth:`PartEmbedding.outer_face`), whose stubs come in boundary-walk
    order.
    """
    participating = [h for h in p.boundary if frozenset(h) in connecting_set]
    if not participating:
        return 2
    # runs of non-participating half-edges between participating slots
    walk = [(s[1], s[2]) for _, s in face if is_stub(s)]
    if len(walk) != len(p.boundary):
        raise RotationError(
            f"boundary walk visited {len(walk)} of {len(p.boundary)} out-darts "
            f"of part {p.part_id}"
        )
    runs = 0
    prev_participating = frozenset(walk[-1]) in connecting_set
    for h in walk:
        is_p = frozenset(h) in connecting_set
        if not is_p and prev_participating:
            runs += 1
        prev_participating = is_p
    sk_edges = skeleton_edge_count({u for u, _ in participating}, steiner, decomposition)
    return 2 * sk_edges + len(participating) + runs + 1


def _check_glue(orders: list[list[HalfEdge]], owner: dict) -> None:
    """Verify a merge at its glue: raise :class:`EmbeddingViolation` unless
    the parts, whose half-edges lie in the cyclic ``orders`` (one per
    part), glue along their connecting half-edges (those whose target
    ``owner`` holds) into a planar part whose other half-edges share a face.

    With ``next`` the successor in a half-edge's own order, let
    ``phi(u, x) = next(x, u)`` for a connecting half-edge and ``next(h)``
    for an external one.  If each realized part has genus 0 and its stubs
    on one face in its order, a merged face through a half-edge runs along
    one part's outer face from a stub to the next, so those faces are the
    cycles of ``phi``; every other face is an untouched inner face of one
    part.  So ``F = sum(F_i - 1) + cycles(phi)`` with ``F_i = 2 - V_i +
    E_i``, and Euler's formula for the merged part reduces to ``k -
    connecting + cycles(phi) = 2`` on the contracted graph of its ``k``
    parts (Figure 1(b)).  Realization's walk and move checks give the
    premise for three or more stubs, the word count's face trace for any
    number; each producer of a part owns its genus 0 (``fresh_part`` by the
    LR kernel, ``adopt_copy``'s splice and ``path_rotation`` under tier-1
    differentials, ``assemble`` by its genus check, a merge by this one).
    O(boundary), where tracing the merged part's faces is O(part).
    """
    succ: dict = {}
    for order in orders:
        succ.update(zip(order, order[1:] + order[:1]))
    seen: set = set()
    cycles = connecting = 0
    faces = set()  # the cycles holding external half-edges
    for h in succ:
        if h in seen:
            continue
        cycles += 1
        while h not in seen:  # walk one cycle of phi
            seen.add(h)
            u, x = h
            if x in owner:
                connecting += 1
                if (x, u) not in succ:
                    raise EmbeddingViolation(f"connecting half-edge {h!r} has no partner")
                h = succ[x, u]
            else:
                faces.add(cycles)
                h = succ[h]
    if len(orders) - connecting // 2 + cycles != 2:
        raise EmbeddingViolation("not a planar embedding")
    if len(faces) > 1:
        raise EmbeddingViolation(f"the external half-edges lie on {len(faces)} faces")


def _skeleton_merge(
    parts: list[PartEmbedding],
    union: Graph,
    new_boundary: list[HalfEdge],
    connecting: list[tuple[NodeId, NodeId]],
    owner: dict,
    result: MergeResult,
) -> PartEmbedding:
    """The skeleton-based merge: steps 1-4 of the module docstring."""
    skeletons = {}
    shared = {}
    connecting_keys = {frozenset(e) for e in connecting}
    for p in parts:
        # One biconnected decomposition per part, its Steiner blocks over
        # the part's attachments and one trace of its outer face serve the
        # skeleton, the reduced summary and the realization (which builds
        # the first two if None).
        attachments = p.attachments()
        decomp = steiner = None
        if len(attachments) > 1:
            decomp = biconnected_components(p.graph)
            steiner = steiner_blocks(set(attachments), decomp)
        face = p.outer_face()
        shared[p.part_id] = decomp, face, steiner
        skeletons[p.part_id] = interface_skeleton(p, decomp, face, steiner)
        result.up_words[p.part_id] = _reduced_summary_words(
            p, connecting_keys, face, decomposition=decomp, steiner=steiner
        )

    # The coordinator's instance: skeleton union + connecting edges + rest.
    instance = Graph()
    for sk in skeletons.values():
        for v in sk.graph.nodes():
            instance.add_node(v)
        for u, v in sk.graph.edges():
            instance.add_edge(u, v)
    for u, x in connecting:
        instance.add_edge(u, x)
    external_attachments = sorted({u for u, _ in new_boundary}, key=repr)
    if external_attachments:
        instance.add_node(_REST)
        for u in external_attachments:
            instance.add_edge(_REST, u)
    try:
        instance_rotation = planar_embedding(instance)
    except NonPlanarGraphError:
        raise NonPlanarNetworkError(
            "merged parts admit no planar arrangement: the network is "
            "non-planar, or the partition violates the safety property "
            "(Definition 3.1)"
        ) from None

    # Prescribe each part's boundary order from the instance arrangement.
    external_at: dict[NodeId, list[HalfEdge]] = {}
    for u, x in new_boundary:
        external_at.setdefault(u, []).append((u, x))
    for u in external_at:
        external_at[u].sort(key=repr)

    augmented = augment_with_stubs(union, new_boundary)
    merged_order: dict[NodeId, tuple] = {}
    orders = []
    for p in parts:
        sk = skeletons[p.part_id]
        walk = contracted_rotation(instance_rotation, set(sk.graph.nodes()))
        prescribed: list[HalfEdge] = []
        for a, b in walk:
            if b == _REST:
                prescribed.extend(external_at.get(a, []))
            else:
                prescribed.append((a, b))
        # The scatter carries the coordinator's *decisions* — one flip bit
        # per skeleton block and one slot index per attachment (the
        # paper's Figure 4 moves); each node then recomputes its own
        # rotation locally (the Section 3 distributed representation).
        # That is proportional to the skeleton, not to the boundary.
        result.down_words[p.part_id] = result.up_words[p.part_id]
        decomp, face, steiner = shared[p.part_id]
        realized = realize_boundary_order(p, prescribed, decomp, face, steiner)
        orders.append(prescribed)
        # Fold the realized rotations into the merged part.  Only rings of
        # attachment vertices hold stubs: there the stubs of connecting
        # edges resolve into real neighbours, and external ones stay.  The
        # realized rings are trusted; a resolved one must be a permutation.
        for v in p.graph:
            merged_order[v] = realized.order(v)
        resolve = {
            stub_node(h): h[1] for h in p.boundary if frozenset(h) in connecting_keys
        }
        for u in {s[1] for s in resolve}:
            ring = merged_order[u] = tuple(resolve.get(nb, nb) for nb in merged_order[u])
            if len(ring) != augmented.degree(u) or set(ring) != set(augmented.neighbors(u)):
                raise EmbeddingViolation(f"merged ring at {u!r} is not a permutation")
    _check_glue(orders, owner)
    for h in new_boundary:
        merged_order[stub_node(h)] = (h[0],)
    return PartEmbedding(
        part_id=min(p.part_id for p in parts),
        graph=union,
        boundary=new_boundary,
        rotation=RotationSystem.trusted(augmented, merged_order),
        depth=graph_depth(union),
    )


# -- round charging for the four merge patterns (Section 5.2) --------------


def _gather_scatter_rounds(result: MergeResult, bandwidth: int) -> tuple[int, int]:
    """Rounds of the slowest part's gather and of its scatter, each costed
    as :func:`vertex_coordinated_rounds` describes."""

    def cost(pid: int, words: int) -> int:
        lanes = result.attachment_edges.get(pid, 1)
        return stream_rounds(
            result.part_depths[pid] + 1, math.ceil(words / lanes), bandwidth
        )

    up = max((cost(pid, w) for pid, w in result.up_words.items()), default=0)
    down = max((cost(pid, w) for pid, w in result.down_words.items()), default=0)
    return up, down


def vertex_coordinated_rounds(result: MergeResult, bandwidth: int = 1) -> int:
    """Round cost of one vertex-coordinated merge, without charging it.

    Each part pipelines its summary toward the coordinator through *all*
    of its merge edges in parallel (the interface is stored distributed
    across the part — paper Section 3 — so disjoint pieces take disjoint
    lanes): ``depth + ceil(words / lanes)`` rounds per part, all parts
    concurrently; the decision scatter mirrors the gather.
    """
    up, down = _gather_scatter_rounds(result, bandwidth)
    return up + down


def charge_merge_stage(
    metrics: RoundMetrics,
    results: list[MergeResult],
    phase: str,
    bandwidth: int = 1,
    detail: str = "",
) -> int:
    """Charge one stage of parallel vertex-coordinated merges.

    The stage's merges touch disjoint parts and run concurrently, so it
    costs its slowest merge's :func:`vertex_coordinated_rounds` and the
    words of all of them.  An empty stage charges nothing.
    """
    if not results:
        return 0
    rounds = max(vertex_coordinated_rounds(r, bandwidth) for r in results)
    words = sum(r.total_up + r.total_down for r in results)
    metrics.charge(phase, rounds, words, detail)
    return rounds


def charge_path_coordinated_merge(
    metrics: RoundMetrics,
    result: MergeResult,
    path_length: int,
    bandwidth: int = 1,
    detail: str = "",
) -> int:
    """Path-coordinated merge: traffic additionally pipelines along P0.

    Gather: each part reaches its P0 attachment in parallel
    (depth + words), then all summaries stream along the path to the
    solving endpoint; scatter mirrors it.
    """
    local_up, local_down = _gather_scatter_rounds(result, bandwidth)
    # The along-path backbone coordinates the parts with O(1) words per
    # part plus the path itself (the per-edge alignment data flows over
    # the parts' own half-embedded edges, not the path).
    k = len(result.up_words)
    along_path = 2 * stream_rounds(max(path_length, 1), 2 * k + 1, bandwidth)
    rounds = local_up + local_down + along_path
    metrics.charge("merge:path", rounds, result.total_up + result.total_down, detail)
    return rounds
