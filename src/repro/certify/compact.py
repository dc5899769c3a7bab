"""Bit-packed certificates: the O(log n)-*bit* label codec.

The E14 labels (:mod:`repro.certify.labels`) charge one CONGEST word per
field — a word is ``word_bits(n) = ceil(log2(n+1)) + 2`` bits, so a
counter that is almost always tiny (a depth, a face length, a leaf's
subtree tally) still costs a full word.  Feuilloley et al., *Compact
Distributed Certification of Planar Graphs* (PODC 2020) shows planarity
admits proof labels of O(log n) **bits**; this module packs our labels
toward that bound without changing their meaning:

* **node identifiers** (root, parent, dart endpoints) are fixed-width
  indices into the deterministic node table (graph insertion order),
  ``id_bits = ceil(log2 n)`` bits each — the only Θ(log n) fields;
* **counters** (depth, tallies, face lengths/indices, the global
  ``n, m, f``) are zigzag varints in 4-bit groups (3 payload bits + 1
  continuation bit), so the common small values take 4–8 bits while any
  integer — including an adversarially tampered one — still encodes;
* **presence flags** (has-parent) are single bits.

The decoder is *total and strict*: any blob — including one with
adversarially flipped bits — either decodes to a
:class:`~repro.certify.labels.NodeCertificate` (bit-exact round-trip of
whatever was encoded, honest or tampered) or raises
:class:`CompactDecodeError`.  :func:`verify_compact` is the codec shim:
it decodes every blob and hands the labels to the unchanged CONGEST
verifier (:func:`repro.certify.verifier.verify_distributed`), mapping a
node whose blob fails to decode to a missing label — which the verifier
rejects (``certificate-missing``).  Soundness therefore carries over
unchanged: a tamper is detected on compact labels iff it is detected on
word labels, plus bit-level corruption of the packing itself is caught
by the strict decoder or by whichever predicate the garbled field
violates.

Size accounting is measured, not modeled: every blob knows its exact
bit length, and :class:`CompactCertificateSet` reports total / mean /
max bits per node next to the E14 word-label baseline
(``words × word_bits(n)``).  :func:`packed_bit_lengths` measures a
subset of labels the same way, so a local patch pays for the labels it
changed rather than for all ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..planar.graph import Graph, NodeId
from .labels import CertificateSet, DartLabel, NodeCertificate

__all__ = [
    "BitReader",
    "BitWriter",
    "CompactCertificateSet",
    "CompactDecodeError",
    "encode_certificates",
    "packed_bit_lengths",
    "verify_compact",
]

# A varint longer than this many 4-bit groups (192 payload bits) cannot
# come from any honest or XOR-tampered counter; the strict decoder
# rejects it instead of scanning unbounded garbage.
_MAX_VARINT_GROUPS = 64


class CompactDecodeError(ValueError):
    """A blob is not a well-formed compact label (truncated, trailing
    bits, an out-of-range node index, or a runaway varint)."""


class BitWriter:
    """Append-only bit sink, LSB-first within the growing integer."""

    def __init__(self) -> None:
        self._acc = 0
        self._nbits = 0

    def write_bits(self, value: int, width: int) -> None:
        if width < 0 or value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._acc |= value << self._nbits
        self._nbits += width

    def write_varint(self, value: int) -> None:
        """Zigzag varint: 4-bit groups of 3 payload bits + 1 continuation."""
        encoded = (value << 1) if value >= 0 else ((-value << 1) - 1)
        while True:
            self.write_bits(encoded & 7, 3)
            encoded >>= 3
            self.write_bits(1 if encoded else 0, 1)
            if not encoded:
                return

    @property
    def bit_length(self) -> int:
        return self._nbits

    def getvalue(self) -> tuple[bytes, int]:
        """The packed blob and its exact bit length."""
        nbytes = (self._nbits + 7) // 8
        return self._acc.to_bytes(nbytes, "little"), self._nbits


class BitReader:
    """Strict reader over a ``(blob, nbits)`` pair from :class:`BitWriter`."""

    def __init__(self, blob: bytes, nbits: int) -> None:
        if nbits < 0 or nbits > len(blob) * 8:
            raise CompactDecodeError(f"bit length {nbits} exceeds blob of {len(blob)} bytes")
        self._acc = int.from_bytes(blob, "little")
        self._nbits = nbits
        self._pos = 0

    def read_bits(self, width: int) -> int:
        if self._pos + width > self._nbits:
            raise CompactDecodeError(
                f"truncated blob: need {width} bits at offset {self._pos} of {self._nbits}"
            )
        value = (self._acc >> self._pos) & ((1 << width) - 1)
        self._pos += width
        return value

    def read_varint(self) -> int:
        encoded = 0
        shift = 0
        for _ in range(_MAX_VARINT_GROUPS):
            encoded |= self.read_bits(3) << shift
            shift += 3
            if not self.read_bits(1):
                return (encoded >> 1) if not (encoded & 1) else -((encoded + 1) >> 1)
        raise CompactDecodeError("runaway varint (no terminating group)")

    @property
    def exhausted(self) -> bool:
        return self._pos == self._nbits

    def expect_exhausted(self) -> None:
        if not self.exhausted:
            raise CompactDecodeError(
                f"{self._nbits - self._pos} trailing bits after the last field"
            )


# -- the label codec ---------------------------------------------------------


def _id_bits(n: int) -> int:
    return max(1, (n - 1).bit_length())


def _encode_label(
    label: NodeCertificate, index: dict[NodeId, int], id_bits: int
) -> tuple[bytes, int]:
    w = BitWriter()
    w.write_bits(index[label.root], id_bits)
    if label.parent is None:
        w.write_bits(0, 1)
    else:
        w.write_bits(1, 1)
        w.write_bits(index[label.parent], id_bits)
    for counter in (
        label.depth,
        label.n,
        label.m,
        label.f,
        label.subtree_vertices,
        label.subtree_degree,
        label.subtree_faces,
        label.face_leaders,
    ):
        w.write_varint(counter)
    w.write_varint(len(label.darts))
    for neighbor in sorted(label.darts, key=repr):
        dart = label.darts[neighbor]
        w.write_bits(index[neighbor], id_bits)
        w.write_bits(index[dart.face[0]], id_bits)
        w.write_bits(index[dart.face[1]], id_bits)
        w.write_varint(dart.length)
        w.write_varint(dart.index)
    return w.getvalue()


def _decode_label(
    node: NodeId, blob: bytes, nbits: int, table: tuple[NodeId, ...], id_bits: int
) -> NodeCertificate:
    r = BitReader(blob, nbits)

    def read_id() -> NodeId:
        i = r.read_bits(id_bits)
        if i >= len(table):
            raise CompactDecodeError(f"node index {i} out of range (n={len(table)})")
        return table[i]

    root = read_id()
    parent = read_id() if r.read_bits(1) else None
    counters = [r.read_varint() for _ in range(8)]
    dart_count = r.read_varint()
    if dart_count < 0 or dart_count > len(table):
        raise CompactDecodeError(f"implausible dart count {dart_count}")
    darts: dict[NodeId, DartLabel] = {}
    for _ in range(dart_count):
        neighbor = read_id()
        if neighbor in darts:
            raise CompactDecodeError(f"duplicate dart label for neighbor {neighbor!r}")
        face = (read_id(), read_id())
        length = r.read_varint()
        dart_index = r.read_varint()
        darts[neighbor] = DartLabel(face=face, length=length, index=dart_index)
    r.expect_exhausted()
    return NodeCertificate(
        node=node,
        root=root,
        parent=parent,
        depth=counters[0],
        n=counters[1],
        m=counters[2],
        f=counters[3],
        subtree_vertices=counters[4],
        subtree_degree=counters[5],
        subtree_faces=counters[6],
        face_leaders=counters[7],
        darts=darts,
    )


@dataclass
class CompactCertificateSet:
    """Every node's label as a packed ``(blob, exact bit length)`` pair.

    ``nodes`` is the codec's shared identifier table (graph insertion
    order) — the one piece of context a decoder needs besides the blob.
    """

    nodes: tuple[NodeId, ...]
    blobs: dict[NodeId, tuple[bytes, int]]

    def __len__(self) -> int:
        return len(self.blobs)

    def __iter__(self):
        return iter(self.blobs)

    def copy(self) -> "CompactCertificateSet":
        return CompactCertificateSet(nodes=self.nodes, blobs=dict(self.blobs))

    # -- decoding ----------------------------------------------------------

    def decode(self) -> CertificateSet:
        """Strict decode of every blob; raises on the first bad one."""
        id_bits = _id_bits(len(self.nodes))
        return CertificateSet(
            {
                v: _decode_label(v, blob, nbits, self.nodes, id_bits)
                for v, (blob, nbits) in self.blobs.items()
            }
        )

    def decode_lenient(self) -> tuple[CertificateSet, dict[NodeId, str]]:
        """Decode what decodes; report per-node errors for the rest.

        A node whose blob fails to decode simply has no label — exactly
        the state the CONGEST verifier rejects as ``certificate-missing``.
        """
        id_bits = _id_bits(len(self.nodes))
        labels: dict[NodeId, NodeCertificate] = {}
        errors: dict[NodeId, str] = {}
        for v, (blob, nbits) in self.blobs.items():
            try:
                labels[v] = _decode_label(v, blob, nbits, self.nodes, id_bits)
            except CompactDecodeError as exc:
                errors[v] = str(exc)
        return CertificateSet(labels), errors

    # -- tamper surface ----------------------------------------------------

    def flip_bit(self, node: NodeId, bit: int) -> None:
        """Flip one bit of one node's packed blob (adversary harness)."""
        blob, nbits = self.blobs[node]
        if not 0 <= bit < nbits:
            raise ValueError(f"bit {bit} outside blob of {nbits} bits")
        raw = bytearray(blob)
        raw[bit // 8] ^= 1 << (bit % 8)
        self.blobs[node] = (bytes(raw), nbits)

    # -- size accounting ---------------------------------------------------

    def size_bits(self) -> dict[NodeId, int]:
        return {v: nbits for v, (_, nbits) in self.blobs.items()}

    def total_bits(self) -> int:
        return sum(nbits for _, nbits in self.blobs.values())

    def max_bits(self) -> int:
        return max((nbits for _, nbits in self.blobs.values()), default=0)

    def mean_bits(self) -> float:
        return self.total_bits() / len(self.blobs) if self.blobs else 0.0

    def to_dict(self) -> dict:
        return {
            "nodes": len(self.blobs),
            "bits_total": self.total_bits(),
            "bits_max": self.max_bits(),
            "bits_mean": round(self.mean_bits(), 2),
        }


def _node_table(graph: Graph) -> tuple[tuple[NodeId, ...], dict[NodeId, int], int]:
    """The codec context: node table, its index, and ``id_bits``."""
    table = tuple(graph.nodes())
    return table, {v: i for i, v in enumerate(table)}, _id_bits(len(table))


def encode_certificates(graph: Graph, certificates: CertificateSet) -> CompactCertificateSet:
    """Pack every label of ``certificates`` (honest or tampered).

    Encoding is pure bookkeeping at each node over its own label — no
    messages, no rounds.  The node table is the graph's deterministic
    insertion order, shared knowledge from the embedding run itself.
    """
    table, index, id_bits = _node_table(graph)
    blobs = {
        v: _encode_label(label, index, id_bits)
        for v, label in certificates.labels.items()
    }
    return CompactCertificateSet(nodes=table, blobs=blobs)


def packed_bit_lengths(
    graph: Graph, certificates: CertificateSet, nodes: Iterable[NodeId]
) -> dict[NodeId, int]:
    """Pack only the labels of ``nodes`` and return their exact bit lengths.

    Same node table, ``id_bits`` and label packer as
    :func:`encode_certificates`, so each length equals that node's entry
    in ``encode_certificates(graph, certificates).size_bits()``; a node
    holding no label is skipped.  A local patch sizes the labels it
    changed with this instead of packing all ``n``.
    """
    _, index, id_bits = _node_table(graph)
    labels = certificates.labels
    return {
        v: _encode_label(labels[v], index, id_bits)[1] for v in nodes if v in labels
    }


def verify_compact(
    graph: Graph,
    rotation,
    compact: CompactCertificateSet,
    metrics=None,
    tracer=None,
    bandwidth_words: int | None = None,
):
    """The codec shim: decode, then run the unchanged CONGEST verifier.

    Returns the usual :class:`~repro.certify.verifier.CertificationReport`
    with the ``label_bits_*`` size fields replaced by the *measured*
    compact bit counts (the word-based fields keep reporting the decoded
    labels' word sizes, so both axes of E21's size comparison ride on
    one report).
    """
    from .verifier import VERIFIER_BANDWIDTH_WORDS, verify_distributed

    decoded, errors = compact.decode_lenient()
    report = verify_distributed(
        graph,
        rotation,
        decoded,
        metrics=metrics,
        tracer=tracer,
        bandwidth_words=(
            bandwidth_words if bandwidth_words is not None else VERIFIER_BANDWIDTH_WORDS
        ),
    )
    report.label_bits_total = compact.total_bits()
    report.label_bits_mean = compact.mean_bits()
    report.label_bits_max = compact.max_bits()
    if errors:
        # Decode failures already surfaced as certificate-missing
        # rejections; keep the codec-level diagnosis alongside them.
        report.decode_errors = {
            repr(v): msg for v, msg in sorted(errors.items(), key=lambda kv: repr(kv[0]))
        }
    return report
