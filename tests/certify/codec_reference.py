"""Test-local reference for the compact label codec: the per-field packer.

This is the codec as it was first written, one ``write_bits`` /
``read_bits`` call per field over a :class:`BitWriter` /
:class:`BitReader` pair.  The shipped codec
(:func:`repro.certify.compact._encode_label` /
:func:`~repro.certify.compact._decode_label`) packs and unpacks a whole
label in one pass over one integer; the differential suite
(``test_codec_differential.py``) holds it to this reference: equal blob
bytes, equal bit lengths, equal decoded labels and the same
:class:`~repro.certify.compact.CompactDecodeError` message on every
malformed blob.  Tests that craft malformed blobs by hand write them
with :class:`BitWriter`.
"""

from __future__ import annotations

from repro.certify.compact import _MAX_VARINT_GROUPS, CompactDecodeError
from repro.certify.labels import DartLabel, NodeCertificate
from repro.planar.graph import NodeId


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


def encode_label(
    label: NodeCertificate, index: dict[NodeId, int], id_bits: int
) -> tuple[bytes, int]:
    """Pack one label field by field (same signature as ``_encode_label``)."""
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


def decode_label(
    node: NodeId, blob: bytes, nbits: int, table: tuple[NodeId, ...], id_bits: int
) -> NodeCertificate:
    """Unpack one label field by field (same signature as ``_decode_label``)."""
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
