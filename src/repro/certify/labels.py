"""Proof labels: the per-node certificates of a planar embedding.

A *proof-labeling scheme* (Korman-Kutten-Peleg; for planarity see
Feuilloley et al., PODC 2020) equips every node with a small label such
that a one-exchange local verifier accepts everywhere iff the global
claim holds.  Here the claim is "the per-vertex clockwise orders output
by the embedding algorithm form a genus-0 rotation system", and the
label of node ``v`` consists of

* **spanning-tree fields** — the certificate tree's root identifier,
  ``v``'s parent and depth in it, and the global tallies ``(n, m, f)``
  the root announced (vertices, edges, faces);
* **subtree tallies** — the number of vertices, the total degree, and
  the number of face-leader darts inside ``v``'s subtree, convergecast
  up the tree by the prover and re-checked against the children's
  claims by the verifier;
* **per-dart face labels** — for every out-dart ``(v, w)`` the identity
  of its face's *leader dart*, the face length, and the dart's index in
  the face walk.  These make the face count locally verifiable: indices
  must advance by one along the face-tracing successor, and a dart
  claims index 0 iff it *is* the leader named by the face identity, so
  every true face walk carries exactly one leader (see
  :mod:`repro.certify.verifier` for the soundness argument).

Sizes: every field is one CONGEST word (a node identifier or a counter
bounded by ``6n``), so a label is ``O(1 + deg(v))`` words — ``O(log n)``
bits per edge endpoint.  Planar graphs have average degree below six,
hence certificates average ``O(log n)`` bits per node; on the
bounded-degree workload families the maximum is ``O(log n)`` too.  The
measured sizes are part of experiment E14.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..congest.message import payload_words, word_bits
from ..planar.graph import NodeId

__all__ = ["DartLabel", "NodeCertificate", "CertificateSet"]


@dataclass
class DartLabel:
    """Face certification for one out-dart ``(v, w)``.

    ``face`` names the face's canonical *leader dart* (the repr-smallest
    dart of the walk); ``length`` is the number of darts on the walk and
    ``index`` this dart's position, with the leader at index 0.
    """

    face: tuple  # (u, w): the leader dart of this dart's face walk
    length: int
    index: int

    def encode(self) -> tuple:
        """Wire encoding: four words (two ids + two counters)."""
        return (self.face[0], self.face[1], self.length, self.index)


@dataclass
class NodeCertificate:
    """The complete proof label held by one node."""

    node: NodeId
    root: NodeId
    parent: NodeId | None
    depth: int
    n: int  # global vertex count, announced by the root
    m: int  # global edge count
    f: int  # global face count
    subtree_vertices: int
    subtree_degree: int  # sum of degrees over the subtree; 2m at the root
    subtree_faces: int
    face_leaders: int  # claimed leader darts at this node
    darts: dict[NodeId, DartLabel] = field(default_factory=dict)

    def tree_fields(self) -> tuple:
        """The dart-independent part of the label (what neighbors audit)."""
        return (
            self.root,
            self.parent,
            self.depth,
            self.n,
            self.m,
            self.f,
            self.subtree_vertices,
            self.subtree_degree,
            self.subtree_faces,
            self.face_leaders,
        )

    def encode(self) -> tuple:
        """Canonical wire encoding of the whole label."""
        return self.tree_fields() + tuple(
            (w,) + self.darts[w].encode() for w in sorted(self.darts, key=repr)
        )

    def words(self, bits_per_word: int) -> int:
        """The label's size in CONGEST words."""
        return payload_words(self.encode(), bits_per_word)

    def copy(self) -> "NodeCertificate":
        """An independent copy (the adversary mutates copies, never originals)."""
        return replace(self, darts={w: replace(d) for w, d in self.darts.items()})


@dataclass
class CertificateSet:
    """All node certificates of one run, plus size accounting."""

    labels: dict[NodeId, NodeCertificate]

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, node: NodeId) -> NodeCertificate:
        return self.labels[node]

    def __iter__(self):
        return iter(self.labels)

    def copy(self) -> "CertificateSet":
        return CertificateSet({v: c.copy() for v, c in self.labels.items()})

    # -- size accounting ---------------------------------------------------

    def size_words(self) -> dict[NodeId, int]:
        """Per-node label size in words (word = ``word_bits(n)`` bits)."""
        bits = word_bits(max(1, len(self.labels)))
        return {v: c.words(bits) for v, c in self.labels.items()}

    def max_words(self) -> int:
        sizes = self.size_words()
        return max(sizes.values(), default=0)

    def mean_words(self) -> float:
        sizes = self.size_words()
        return sum(sizes.values()) / len(sizes) if sizes else 0.0

    def size_bits(self) -> dict[NodeId, int]:
        """Per-node label size in *bits* under word encoding: the E14
        baseline (``words × word_bits(n)``) that the compact codec
        (:mod:`repro.certify.compact`) is measured against."""
        bits = word_bits(max(1, len(self.labels)))
        return {v: c.words(bits) * bits for v, c in self.labels.items()}

    def size_summary(self) -> dict:
        """Words max/mean and bits total/max/mean from one measuring pass.

        Bits are ``words × word_bits(n)`` exactly as :meth:`size_bits`
        computes them, so every field equals its value from
        :meth:`max_words`, :meth:`mean_words` and :meth:`size_bits`,
        each of which re-measures every label.
        """
        words = list(self.size_words().values())
        bits = word_bits(max(1, len(self.labels)))
        total = sum(words)
        peak = max(words, default=0)
        return {
            "words_max": peak,
            "words_mean": total / len(words) if words else 0.0,
            "bits_total": total * bits,
            "bits_max": peak * bits,
            "bits_mean": total * bits / len(words) if words else 0.0,
        }

    def to_dict(self) -> dict:
        """A JSON-ready size summary (labels themselves stay binary-ish)."""
        sizes = self.size_summary()
        return {
            "nodes": len(self.labels),
            "words_max": sizes["words_max"],
            "words_mean": round(sizes["words_mean"], 2),
            "bits_max": sizes["bits_max"],
            "bits_mean": round(sizes["bits_mean"], 2),
        }
