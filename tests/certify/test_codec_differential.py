"""The one-pass label codec against the per-field reference.

:mod:`repro.certify.compact` packs and unpacks a label in one pass over
one integer.  :mod:`tests.certify.codec_reference` keeps the per-field
packer it replaced.  The format did not change, so on every input the
two must agree exactly:

* **encoding** — the same blob bytes and bit length for any label,
  honest or not, and the same ``KeyError`` for a label that names a node
  outside the table;
* **decoding** — for any ``(blob, nbits)``, the same label, or a
  :class:`CompactDecodeError` with the same message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.certify import CompactDecodeError, build_certificates, encode_certificates
from repro.certify.compact import _decode_label, _encode_label, _id_bits, _node_table
from repro.certify.labels import DartLabel, NodeCertificate
from repro.planar import planar_embedding
from repro.planar.generators import grid_graph, random_planar
from tests.certify import codec_reference as ref
from tests.certify.codec_reference import BitWriter

COUNTERS = st.integers(min_value=-(2**80), max_value=2**80)

# Node ids of three kinds, so the repr order of darts is exercised too.
NODE_KINDS = {
    "int": lambda i: i * 7 % 101,
    "tuple": lambda i: (i % 5, i // 5),
    "str": lambda i: f"v{i}",
}


def outcome(decode, *args):
    try:
        return "label", decode(*args)
    except CompactDecodeError as exc:
        return "error", str(exc)


def assert_same_decode(node, blob, nbits, table, id_bits):
    expected = outcome(ref.decode_label, node, blob, nbits, table, id_bits)
    assert outcome(_decode_label, node, blob, nbits, table, id_bits) == expected
    return expected


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    make = NODE_KINDS[draw(st.sampled_from(sorted(NODE_KINDS)))]
    return tuple(make(i) for i in range(n))


@st.composite
def labelled(draw):
    """A node table and an arbitrary label over it (any counter values)."""
    table = draw(tables())
    node = st.sampled_from(table)
    neighbors = draw(st.lists(node, unique=True, max_size=min(len(table), 12)))
    darts = {
        w: DartLabel(
            face=(draw(node), draw(node)), length=draw(COUNTERS), index=draw(COUNTERS)
        )
        for w in neighbors
    }
    label = NodeCertificate(
        draw(node),
        draw(node),
        draw(st.none() | node),
        *(draw(COUNTERS) for _ in range(8)),
        darts,
    )
    return table, label


@given(labelled())
@settings(max_examples=300, deadline=None)
def test_arbitrary_labels_pack_and_unpack_like_the_reference(case):
    table, label = case
    index = {v: i for i, v in enumerate(table)}
    id_bits = _id_bits(len(table))
    blob, nbits = _encode_label(label, index, id_bits)
    assert (blob, nbits) == ref.encode_label(label, index, id_bits)
    assert _decode_label(label.node, blob, nbits, table, id_bits) == label
    assert assert_same_decode(label.node, blob, nbits, table, id_bits) == ("label", label)


def honest_blobs(graph):
    certs = build_certificates(graph, planar_embedding(graph))
    table, _, id_bits = _node_table(graph)
    return table, id_bits, encode_certificates(graph, certs).blobs


HONEST = {
    "grid": honest_blobs(grid_graph(4, 5)),
    "planar": honest_blobs(random_planar(40, seed=2)),
}


def flip(raw: bytearray, bit: int) -> None:
    raw[bit // 8] ^= 1 << (bit % 8)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_mutated_honest_blobs_decode_like_the_reference(data):
    table, id_bits, blobs = HONEST[data.draw(st.sampled_from(sorted(HONEST)))]
    node = data.draw(st.sampled_from(table))
    blob, nbits = blobs[node]
    raw = bytearray(blob)
    mutation = data.draw(
        st.sampled_from(["flip", "truncate", "append", "padding", "overlong"])
    )
    if mutation == "flip":
        for bit in data.draw(st.lists(st.integers(0, nbits - 1), min_size=1, max_size=4)):
            flip(raw, bit)
    elif mutation == "truncate":
        nbits = data.draw(st.integers(0, nbits - 1))
        if data.draw(st.booleans()):
            del raw[(nbits + 7) // 8 :]
    elif mutation == "append":
        raw += data.draw(st.binary(min_size=1, max_size=8))
        nbits = data.draw(st.integers(nbits + 1, 8 * len(raw)))
    elif mutation == "padding":
        raw += data.draw(st.binary(max_size=4))
        if 8 * len(raw) == nbits:
            raw.append(0)
        for bit in data.draw(st.lists(st.integers(nbits, 8 * len(raw) - 1), min_size=1)):
            flip(raw, bit)
    else:
        nbits = data.draw(st.integers(8 * len(raw) + 1, 8 * len(raw) + 64))
    assert_same_decode(node, bytes(raw), nbits, table, id_bits)


# -- crafted cases ---------------------------------------------------------

# Nine nodes take 4-bit ids, so 15 is an out-of-range index.
TABLE = tuple(range(9))
ID_BITS = _id_bits(len(TABLE))
BAD_ID = 15


def write_label(root=0, parent=None, counters=(0,) * 8, darts=(), dart_count=None):
    """A blob field by field; ``darts`` are ``(neighbor, face0, face1,
    length, index)`` with raw indices, so ids may be out of range."""
    w = BitWriter()
    w.write_bits(root, ID_BITS)
    w.write_bits(int(parent is not None), 1)
    if parent is not None:
        w.write_bits(parent, ID_BITS)
    for value in counters:
        w.write_varint(value)
    w.write_varint(len(darts) if dart_count is None else dart_count)
    for neighbor, face0, face1, length, index in darts:
        for i in (neighbor, face0, face1):
            w.write_bits(i, ID_BITS)
        w.write_varint(length)
        w.write_varint(index)
    return w.getvalue()


def varint_groups(groups: int) -> tuple[bytes, int]:
    """A label whose depth is a varint of ``groups`` 4-bit groups."""
    w = BitWriter()
    w.write_bits(0, ID_BITS)
    w.write_bits(0, 1)
    for g in range(groups):
        w.write_bits(5, 3)
        w.write_bits(int(g < groups - 1), 1)
    for _ in range(8):
        w.write_varint(0)
    return w.getvalue()


def test_sixty_four_group_varint_decodes():
    blob, nbits = varint_groups(64)
    kind, label = assert_same_decode(0, blob, nbits, TABLE, ID_BITS)
    assert kind == "label" and label.depth.bit_length() > 180


def test_sixty_five_group_varint_is_a_runaway():
    blob, nbits = varint_groups(65)
    assert assert_same_decode(0, blob, nbits, TABLE, ID_BITS) == (
        "error",
        "runaway varint (no terminating group)",
    )


@pytest.mark.parametrize(
    "fields",
    [
        {"root": BAD_ID},
        {"parent": BAD_ID},
        {"darts": [(1, 0, 1, 3, 0), (BAD_ID, 0, 1, 3, 1)]},
        {"darts": [(1, BAD_ID, 1, 3, 0)]},
        {"darts": [(1, 0, BAD_ID, 3, 0)]},
    ],
    ids=["root", "parent", "neighbor", "face0", "face1"],
)
def test_out_of_range_id_in_each_slot(fields):
    blob, nbits = write_label(**fields)
    assert assert_same_decode(0, blob, nbits, TABLE, ID_BITS) == (
        "error",
        f"node index {BAD_ID} out of range (n={len(TABLE)})",
    )


def test_duplicate_dart():
    blob, nbits = write_label(darts=[(4, 0, 4, 3, 0), (4, 4, 0, 3, 1)])
    assert assert_same_decode(0, blob, nbits, TABLE, ID_BITS) == (
        "error",
        "duplicate dart label for neighbor 4",
    )


def test_duplicate_dart_is_named_before_a_bad_face_id():
    blob, nbits = write_label(darts=[(4, 0, 4, 3, 0), (4, BAD_ID, 0, 3, 1)])
    assert assert_same_decode(0, blob, nbits, TABLE, ID_BITS) == (
        "error",
        "duplicate dart label for neighbor 4",
    )


def test_dart_count_of_n_plus_one():
    blob, nbits = write_label(dart_count=len(TABLE) + 1)
    assert assert_same_decode(0, blob, nbits, TABLE, ID_BITS) == (
        "error",
        f"implausible dart count {len(TABLE) + 1}",
    )


def test_every_truncation_point_reports_the_reference_error():
    """Cutting a blob at each bit hits every field kind's truncation
    message: ids, the parent flag, and both halves of a varint group."""
    blob, nbits = write_label(
        parent=3, counters=(2, 9, 17, 8, -1, 70, 300, -4096), darts=[(1, 0, 1, 5, 2)]
    )
    messages = set()
    for cut in range(nbits):
        kind, message = assert_same_decode(0, blob, cut, TABLE, ID_BITS)
        assert kind == "error"
        messages.add(message.split(" at ")[0])
    assert messages == {
        f"truncated blob: need {ID_BITS} bits",
        "truncated blob: need 1 bits",
        "truncated blob: need 3 bits",
    }


# Every power of two, one either side, both signs: the ends of the packer's
# 256-entry table and of every group count.
BOUNDARIES = sorted(
    {s * ((1 << k) + d) for k in range(90) for d in (-1, 0, 1) for s in (1, -1)}
)


def test_varint_group_boundaries_match_the_reference():
    for start in range(0, len(BOUNDARIES), 8):
        counters = (BOUNDARIES[start : start + 8] + [0] * 8)[:8]
        label = NodeCertificate(0, 0, None, *counters, {1: DartLabel((0, 1), *counters[:2])})
        index = {v: v for v in TABLE}
        packed = _encode_label(label, index, ID_BITS)
        assert packed == ref.encode_label(label, index, ID_BITS)
        assert assert_same_decode(0, *packed, TABLE, ID_BITS) == ("label", label)


ID_SLOTS = ["root", "parent", "neighbor", "face0", "face1"]


@pytest.mark.parametrize("first", ID_SLOTS)
def test_unknown_node_raises_the_same_key_error(first):
    """Every slot from ``first`` on names a node outside the table; both
    packers raise ``KeyError`` for the node in ``first``."""
    k = ID_SLOTS.index(first)
    ids = {slot: (f"stranger-{slot}" if j >= k else 1) for j, slot in enumerate(ID_SLOTS)}
    label = NodeCertificate(
        0,
        ids["root"],
        ids["parent"],
        *range(8),
        {ids["neighbor"]: DartLabel((ids["face0"], ids["face1"]), 3, 0)},
    )
    index = {v: v for v in TABLE}
    with pytest.raises(KeyError) as shipped:
        _encode_label(label, index, ID_BITS)
    with pytest.raises(KeyError) as reference:
        ref.encode_label(label, index, ID_BITS)
    assert shipped.value.args == reference.value.args == (ids[first],)
