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

A blob holds, low bit first: root id, has-parent flag, parent id, the
eight counters, the dart count, then per dart (``repr`` order) the
neighbor id, leader-dart ids, length and index.  Each label is packed
and unpacked in one pass over one int; a malformed blob fails exactly
as under the field-by-field reference ``tests/certify/codec_reference.py``.

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


# -- the label codec ---------------------------------------------------------


def _id_bits(n: int) -> int:
    return max(1, (n - 1).bit_length())


def _varint_nibbles(code: int) -> tuple[int, int]:
    """A zigzag code's 4-bit groups as ``(bits, width)``, low group first."""
    bits = width = 0
    while code >= 64:  # at least three groups left: take two, both continued
        bits |= ((code & 7) | (code & 56) << 1 | 136) << width
        code >>= 6
        width += 8
    if code >= 8:
        return bits | ((code & 7) | 8 | code >> 3 << 4) << width, width + 8
    return bits | code << width, width + 4


def _varint_bits(value: int) -> tuple[int, int]:
    """The zigzag varint of ``value`` as ``(bits, width)``."""
    return _varint_nibbles(value << 1 if value >= 0 else (-value << 1) - 1)


# ``_VARINT[value + 128]`` is ``_varint_bits(value)`` for -128 <= value < 128,
# which covers most counters of an honest label.
_VARINT = tuple(_varint_bits(value) for value in range(-128, 128))


def _encode_label(
    label: NodeCertificate, index: dict[NodeId, int], id_bits: int
) -> tuple[bytes, int]:
    acc = index[label.root]
    pos = id_bits + 1
    if label.parent is not None:
        acc |= (index[label.parent] << 1 | 1) << id_bits
        pos += id_bits
    darts = label.darts
    for value in (label.depth, label.n, label.m, label.f, label.subtree_vertices,
                  label.subtree_degree, label.subtree_faces, label.face_leaders, len(darts)):
        bits, width = _VARINT[value + 128] if -128 <= value < 128 else _varint_bits(value)
        acc |= bits << pos
        pos += width
    ids = 3 * id_bits
    for neighbor in sorted(darts, key=repr):
        dart = darts[neighbor]
        face, length, at = dart.face, dart.length, dart.index
        bits = index[neighbor] | (index[face[0]] | index[face[1]] << id_bits) << id_bits
        length_varint = _VARINT[length + 128] if -128 <= length < 128 else _varint_bits(length)
        at_varint = _VARINT[at + 128] if -128 <= at < 128 else _varint_bits(at)
        acc |= (bits | (length_varint[0] | at_varint[0] << length_varint[1]) << ids) << pos
        pos += ids + length_varint[1] + at_varint[1]
    return acc.to_bytes((pos + 7) // 8, "little"), pos


def _truncated(width: int, pos: int, nbits: int) -> CompactDecodeError:
    return CompactDecodeError(f"truncated blob: need {width} bits at offset {pos} of {nbits}")


def _node_at(acc: int, pos: int, nbits: int, id_bits: int, table: tuple[NodeId, ...]) -> NodeId:
    if pos + id_bits > nbits:
        raise _truncated(id_bits, pos, nbits)
    i = acc >> pos & ((1 << id_bits) - 1)
    if i >= len(table):
        raise CompactDecodeError(f"node index {i} out of range (n={len(table)})")
    return table[i]


def _short_varint(window: int) -> tuple[int, int] | None:
    """``(value, width)`` of a varint that ends inside this 8-bit window."""
    if not window & 8:
        code, width = window & 7, 4
    elif not window & 128:
        code, width = (window & 7) | (window >> 1 & 56), 8
    else:
        return None
    return (-((code + 1) >> 1) if code & 1 else code >> 1), width


# Indexed by the 8 bits at a varint's offset: its value and width when it
# takes one or two groups, else None (the per-group loop in ``_varint``).
_SHORT_VARINT = tuple(_short_varint(window) for window in range(256))


def _varint(acc: int, pos: int, nbits: int) -> tuple[int, int]:
    """The varint at ``pos`` and the offset after it."""
    if pos + 8 <= nbits:
        short = _SHORT_VARINT[acc >> pos & 255]
        if short is not None:
            return short[0], pos + short[1]
    code = shift = 0
    for _ in range(_MAX_VARINT_GROUPS):
        if pos + 4 > nbits:
            raise _truncated(3, pos, nbits) if pos + 3 > nbits else _truncated(1, pos + 3, nbits)
        group = acc >> pos & 15
        pos += 4
        code |= (group & 7) << shift
        if group < 8:
            return (-((code + 1) >> 1) if code & 1 else code >> 1), pos
        shift += 3
    raise CompactDecodeError("runaway varint (no terminating group)")


def _decode_label(
    node: NodeId, blob: bytes, nbits: int, table: tuple[NodeId, ...], id_bits: int
) -> NodeCertificate:
    if nbits < 0 or nbits > len(blob) * 8:
        raise CompactDecodeError(f"bit length {nbits} exceeds blob of {len(blob)} bytes")
    acc = int.from_bytes(blob, "little")
    n = len(table)
    root = _node_at(acc, 0, nbits, id_bits, table)
    if id_bits >= nbits:  # no room for the has-parent flag
        raise _truncated(1, id_bits, nbits)
    pos = id_bits + 1
    parent = None
    if acc >> id_bits & 1:
        parent = _node_at(acc, pos, nbits, id_bits, table)
        pos += id_bits
    counters = []
    for _ in range(9):
        value, pos = _varint(acc, pos, nbits)
        counters.append(value)
    dart_count = counters.pop()
    if dart_count < 0 or dart_count > n:
        raise CompactDecodeError(f"implausible dart count {dart_count}")
    mask = (1 << id_bits) - 1
    ids = 3 * id_bits
    darts: dict[NodeId, DartLabel] = {}
    for _ in range(dart_count):
        x = acc >> pos
        i, j, k = x & mask, x >> id_bits & mask, x >> 2 * id_bits & mask
        if pos + ids > nbits or i >= n or j >= n or k >= n:
            # An id is cut off or out of range: read field by field, so the
            # error names the first bad field (a duplicate neighbor first).
            if _node_at(acc, pos, nbits, id_bits, table) not in darts:
                _node_at(acc, pos + id_bits, nbits, id_bits, table)
                _node_at(acc, pos + 2 * id_bits, nbits, id_bits, table)
        neighbor = table[i]
        if neighbor in darts:
            raise CompactDecodeError(f"duplicate dart label for neighbor {neighbor!r}")
        face = (table[j], table[k])
        length, pos = _varint(acc, pos + ids, nbits)
        dart_index, pos = _varint(acc, pos, nbits)
        darts[neighbor] = DartLabel(face, length, dart_index)
    if pos != nbits:
        raise CompactDecodeError(f"{nbits - pos} trailing bits after the last field")
    return NodeCertificate(node, root, parent, *counters, darts)


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
