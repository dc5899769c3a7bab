"""Realizing a prescribed boundary order inside a part.

After a merge coordinator solves the arrangement on the skeletons, each
part must give its half-embedded edges the cyclic order it receives.  It
does so with the interface moves of Observation 3.2 and Figure 4 — block
flips, and the order of blocks and stubs around cut vertices — applied
to its own rotation.  Rooted at the first prescribed stub's endpoint,
every block of the block-cut tree's Steiner subtree over the stubs'
endpoints, and every vertex of one, gets the interval of prescribed
positions of the stubs behind it; no stub lies behind any other block.
A block is kept if its stub-carrying children, read
along its outer face from its entry vertex, come in increasing order,
and flipped (its rings reversed) if decreasing.  A stub-carrying
vertex's ring becomes its parent item's segment, cut after its outer
corner, then its stub-carrying items in interval order; a stub-free item
stays after the neighbour it followed (before it, if that neighbour's
block flipped), and stub-free subtrees keep their rings.

Correctness.  A block's *outer face* is the face of its own rotation that
the part's outer face runs through: the walk to a stub behind a block
enters it at its entry vertex and follows that face.  Any co-facial
order gives each item's stubs one contiguous interval of the walk, so
the order around each vertex is forced; a block's co-facial vertices have
one cyclic order up to a flip, so its children come in the prescribed
order, its reverse, or the order is outside the interface.  Blocks flip
independently: reversed rings keep a block's faces, and items that do
not interleave around a cut vertex keep the genus at zero.

The merge's glue check (:func:`repro.core.merges._check_glue`) rests on
:func:`_check_move`, run on every ring the moves rewrite or flip, and on
the final check of the new walk, the one trace of the new rotation.

The merge traces each part's outer face once, for its summary's word
count, and hands that trace in: realization starts it at the first
prescribed stub instead of tracing it again.  The merge hands in the
part's Steiner blocks too, which its skeleton was built from.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..planar.biconnected import BiconnectedDecomposition, biconnected_components
from ..planar.graph import edge_id
from ..planar.rotation import RotationSystem
from .interface import steiner_blocks
from .parts import HalfEdge, PartEmbedding, stub_node

__all__ = ["RealizationError", "realize_boundary_order", "cyclic_equal"]


class RealizationError(RuntimeError):
    """A prescribed order was not realizable (skeleton infidelity)."""


def cyclic_equal(a: Sequence, b: Sequence) -> bool:
    """True iff ``a`` and ``b`` are equal as cyclic sequences."""
    n = len(a)
    if n != len(b):
        return False
    if n == 0:
        return True
    la, lb = list(a), list(b)
    doubled = lb + lb
    first = la[0]
    # Only shifts aligning b with a's first element can match; for
    # boundary walks (distinct half-edges) that is a single candidate.
    for i, x in enumerate(lb):
        if x == first and doubled[i : i + n] == la:
            return True
    return False


def _check_move(ring: Sequence, edges: dict, flipped: set) -> None:
    """Raise :class:`RealizationError` unless ``ring`` is an Observation 3.2
    move of the ring whose items (blocks and stubs) hold ``edges``, each
    item's neighbours in their old cyclic order: a permutation of them in
    which every block keeps its order, reversed iff it is ``flipped``, and
    no two items interleave.  Genus is additive over blocks whose items do
    not interleave at cut vertices, and a flipped block is a mirror image."""
    item_of = {w: x for x, ws in edges.items() for w in ws}
    if len(ring) != len(item_of) or item_of.keys() != set(ring):
        raise RealizationError(f"moved ring {ring!r} is not a permutation of the old one")
    moved: dict = {}  # item -> its neighbours in ring order
    stack: list = []  # items nest like brackets (at any cut of a cyclic order)
    for w in ring:
        x = item_of[w]
        if not stack or stack[-1] != x:
            if x in moved:
                raise RealizationError(f"moved ring {ring!r} interleaves item {x!r}")
            moved[x] = []
            stack.append(x)
        moved[x].append(w)
        if len(moved[x]) == len(edges[x]):
            stack.pop()
    for x, ws in moved.items():
        if len(ws) >= 3 and not cyclic_equal(ws, edges[x][::-1] if x in flipped else edges[x]):
            raise RealizationError(f"moved ring {ring!r} neither keeps nor flips block {x!r}")


def realize_boundary_order(
    part: PartEmbedding,
    prescribed: Sequence[HalfEdge],
    decomposition: BiconnectedDecomposition | None = None,
    face: list | None = None,
    steiner: dict | None = None,
) -> RotationSystem:
    """A rotation of ``part`` whose boundary walk equals ``prescribed``.

    ``prescribed`` must be a permutation of the part's boundary.  Raises
    :class:`RealizationError` if the order is outside the part's
    interface (which, when the order came from a faithful skeleton,
    indicates a bug: :func:`~repro.core.merges.merge_parts` lets it
    propagate as an internal error).
    ``decomposition`` lets a caller share one biconnected decomposition
    of ``part.graph`` and its :func:`~repro.core.interface.steiner_blocks`
    over the part's attachments (``steiner``) with the part's skeleton,
    and ``face`` one trace of the part's outer face (the face of
    ``part.rotation`` holding its stubs, from any dart) with its summary.
    """
    # Half-edges are distinct, so equal sizes and equal sets make a permutation.
    if len(prescribed) != len(part.boundary) or set(prescribed) != set(part.boundary):
        raise ValueError("prescribed order is not a permutation of the boundary")
    rotation, m = part.rotation, len(prescribed)
    if m <= 2:
        return rotation  # co-facial stubs; every cyclic order of two is one
    stubs = [stub_node(h) for h in prescribed]
    slot = {s: i for i, s in enumerate(stubs)}
    root = prescribed[0][0]
    outside = RealizationError(f"prescribed order is outside part {part.part_id}'s interface")
    start = (root, stubs[0])
    if face is None:
        face = rotation.face_of(*start)
    elif face[0] != start:
        if start not in face:
            raise outside  # the stubs are not on one face
        i = face.index(start)
        face = face[i:] + face[:i]
    walk = [slot[v] for _, v in face if v in slot]
    if walk == list(range(m)):
        return rotation
    if len(walk) != m:
        raise outside

    if decomposition is None:
        decomposition = biconnected_components(part.graph)
    if steiner is None:
        steiner = steiner_blocks(set(part.attachments()), decomposition)
    block_of, blocks_of = decomposition.component_of_edge, decomposition.components_of
    vertices_of = decomposition.component_by_id
    arrive: dict = {}  # (block, v) -> the neighbour the face arrives from
    met: dict = {}  # block -> its vertices in the order the face meets them
    for u, v in face:
        if u not in slot and v not in slot:
            b = block_of[edge_id(u, v)]
            arrive[b, v] = u
            met.setdefault(b, []).append(v)

    # Root the Steiner blocks (iteratively: subdivided parts nest hundreds
    # of blocks deep), then the stub intervals bottom-up.  Any other block
    # has no stub behind it: it gets no interval and keeps its rings.
    parent: dict = {root: None}  # vertex -> the block it hangs from
    entry: dict = {}  # block -> the vertex it hangs from
    blocks, stack = [], [root]
    while stack:
        v = stack.pop()
        for b in blocks_of[v]:
            if b in steiner and b not in entry:
                entry[b] = v
                blocks.append(b)
                for w in vertices_of[b].vertices:
                    if w != v:
                        parent[w] = b
                        stack.append(w)
    lo, hi = {}, {}  # vertex -> first, last position of the stubs behind it
    for i in range(1, m):
        lo.setdefault(prescribed[i][0], i)
        hi[prescribed[i][0]] = i
    block_lo: dict = {}  # stub-carrying block -> first position behind it
    for b in reversed(blocks):
        e = entry[b]
        kids = [w for w in vertices_of[b].vertices if w != e and w in lo]
        if kids:
            block_lo[b] = low = min(lo[w] for w in kids)
            high = max(hi[w] for w in kids)
            lo[e], hi[e] = min(lo.get(e, low), low), max(hi.get(e, high), high)

    flipped = set()
    for b in block_lo:
        seq = met.get(b, [])
        if entry[b] not in seq:
            raise outside
        i = seq.index(entry[b])
        kids = [w for w in seq[i + 1 :] + seq[:i] if w in lo]
        pairs = list(zip(kids, kids[1:]))
        if not all(hi[a] < lo[c] for a, c in pairs):
            if not all(hi[c] < lo[a] for a, c in pairs):
                raise outside
            flipped.add(b)

    order = rotation.as_dict()
    for v in set(lo).union(*(vertices_of[b].vertices for b in flipped)):
        old = order[v]
        if len(old) <= 2:
            continue  # every order of two neighbours is the same ring
        head = parent[v] if v != root else stubs[0]
        only = blocks_of[v][0] if len(blocks_of[v]) == 1 else None
        items = [w if w in slot else only or block_of[edge_id(v, w)] for w in old]
        edges: dict = {}  # item (a stub or a block) -> its neighbours here
        for w, x in zip(old, items):
            edges.setdefault(x, []).append(w)
        carrying = {x for x in edges if x == head or x in slot or x in block_lo}
        # Each run of stub-free items stays after the carrying edge before it.
        k = next(i for i, x in enumerate(items) if x in carrying)
        runs, anchor = {}, old[k]
        for w, x in zip(old[k + 1 :] + old[:k], items[k + 1 :] + items[:k]):
            if x in carrying:
                anchor = w
            else:
                runs.setdefault(anchor, []).append(w)
        kids = sorted(carrying - {head}, key=lambda x: slot[x] if x in slot else block_lo[x])
        ring = []
        for x in (head, *kids):
            segment, flip = edges[x], x in flipped
            if (x, v) in arrive:  # cut after the outer corner
                i = segment.index(arrive[x, v]) + 1
                segment = segment[i:] + segment[:i]
            for w in segment[::-1] if flip else segment:
                run = runs.get(w, [])
                ring += run + [w] if flip else [w] + run
        rewritten = not cyclic_equal(ring, old)
        if rewritten or (flipped and any(len(edges[b]) >= 3 for b in flipped & edges.keys())):
            _check_move(ring, edges, flipped)
        if rewritten:
            order[v] = tuple(ring)

    realized = RotationSystem.trusted(rotation.graph, order)
    if [slot[v] for _, v in realized.face_of(*start) if v in slot] != list(range(m)):
        raise outside
    return realized
