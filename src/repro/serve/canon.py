"""Whole-graph canonical hashing for the serving cache.

Two submissions of the same topology under *any* vertex labels should
land on the same cache line of the serving cache.  This module computes
a **label-invariant canonical hash** of a graph via Weisfeiler–Leman
(1-WL) color refinement:

* every vertex starts with a color derived from its degree;
* each round rehashes a vertex's color together with the sorted multiset
  of its neighbors' colors;
* refinement stops when the number of color classes stabilizes (at most
  ``n`` rounds);
* the graph hash digests ``(n, m)``, the sorted multiset of final vertex
  colors, and the sorted multiset of per-edge color pairs.

All hashing uses ``blake2b`` over deterministic byte strings — never
Python's randomized ``hash()`` — so the digest is **stable across
processes and machines**, which the persistent JSONL cache relies on.

1-WL cannot distinguish *every* non-isomorphic pair (co-spectral regular
graphs collide), so the cache layered on top never trusts the hash
alone: exact hits additionally match a submission-order fingerprint, and
isomorphic "remap" hits are only served when refinement is **discrete**
(every vertex got a unique color).  In that case the color order is a
genuine canonical labeling: matching colors between two discretely
refined graphs with equal hashes *is* an isomorphism, because at the
fixpoint equal colors imply equal neighbor-color multisets, so the
color-matching bijection preserves adjacency.  Symmetric families (the
grid's mirror images, cycles) never refine to discrete colors and are
simply served by exact fingerprint instead — correctness never leans on
a heuristic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..planar.graph import Graph, NodeId, sort_key

__all__ = ["CanonicalForm", "canonical_form", "canonical_hash", "exact_fingerprint"]

#: Digest width for vertex colors and graph hashes (128 bits: birthday
#: collisions are negligible at any realistic cache population).
_DIGEST_SIZE = 16


def _h(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=_DIGEST_SIZE).digest()


@dataclass(frozen=True)
class CanonicalForm:
    """The refinement outcome for one graph.

    ``hash`` is the label-invariant hex digest.  ``labels`` maps every
    vertex to its canonical rank — present **only** when refinement was
    discrete (all colors distinct), i.e. when the ranks constitute a
    canonical labeling usable for isomorphism remapping; ``None``
    otherwise.
    """

    hash: str
    n: int
    m: int
    iterations: int
    labels: dict[NodeId, int] | None = field(default=None, compare=False)

    @property
    def discrete(self) -> bool:
        return self.labels is not None


def canonical_form(graph: Graph) -> CanonicalForm:
    """Run WL refinement on ``graph`` and return its canonical form."""
    nodes = graph.nodes()
    n = len(nodes)
    m = graph.num_edges
    if n == 0:
        return CanonicalForm(hash=_h(b"empty-graph").hex(), n=0, m=0, iterations=0, labels={})

    adj = graph._adj
    color: dict[NodeId, bytes] = {
        v: _h(b"deg:" + len(adj[v]).to_bytes(8, "big")) for v in nodes
    }
    classes = len(set(color.values()))
    iterations = 0
    # Refine until the partition stops splitting.  Colors only ever
    # refine (each new color embeds the old one), so the class count is
    # non-decreasing and the loop runs at most n rounds.
    while classes < n:
        new: dict[NodeId, bytes] = {}
        for v in nodes:
            neighbor_colors = sorted(color[u] for u in adj[v])
            new[v] = _h(color[v] + b"".join(neighbor_colors))
        iterations += 1
        new_classes = len(set(new.values()))
        color = new
        if new_classes == classes:
            break
        classes = new_classes

    hasher = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    hasher.update(b"wl-graph-v1")
    hasher.update(n.to_bytes(8, "big"))
    hasher.update(m.to_bytes(8, "big"))
    for c in sorted(color[v] for v in nodes):
        hasher.update(c)
    for pair in sorted(
        min(color[a], color[b]) + max(color[a], color[b]) for a, b in graph.edges()
    ):
        hasher.update(pair)

    labels: dict[NodeId, int] | None = None
    if classes == n:
        # Discrete refinement: color order is a canonical labeling.
        # Ties are impossible (all colors distinct), so the rank is
        # label-independent.
        ranked = sorted(nodes, key=lambda v: color[v])
        labels = {v: i for i, v in enumerate(ranked)}
    return CanonicalForm(
        hash=hasher.hexdigest(), n=n, m=m, iterations=iterations, labels=labels
    )


def canonical_hash(graph: Graph) -> str:
    """The label-invariant hex digest of ``graph`` (shorthand)."""
    return canonical_form(graph).hash


def exact_fingerprint(graph: Graph) -> str:
    """A digest of the graph *as constructed*: vertex identities plus
    per-vertex adjacency in insertion order.

    Two submissions with equal fingerprints build byte-identical
    adjacency structures, and every algorithm in this library is
    deterministic given that structure — so an exact-fingerprint cache
    hit may legally return the stored report verbatim as "bit-identical
    to a cold run".  Submissions of the same edge set in a *different
    order* get different fingerprints on purpose: insertion order is
    observable in the output rotation, so order-insensitive matching
    would break the bit-identical contract (they still share a canonical
    hash and dedupe at that level).
    """
    hasher = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    hasher.update(b"exact-v1")
    for v in graph.nodes():
        hasher.update(b"\x00v" + sort_key(v).encode())
        for u in graph.neighbors(v):
            hasher.update(b"\x01n" + sort_key(u).encode())
    return hasher.hexdigest()
