"""The compact label codec (E21): round-trips, strictness, soundness.

Three claims to pin down:

* **fidelity** — encode/decode is bit-exact on every label the prover
  emits *and* on arbitrary (tampered) field values, so the codec never
  launders a corruption into a different-but-valid label;
* **strictness** — a blob that is not a well-formed label (truncated,
  trailing bits, out-of-range index, runaway varint) raises
  :class:`CompactDecodeError`, and the lenient path maps it to a missing
  label the verifier rejects;
* **economy** — measured bits/node stay strictly below the E14
  word-label baseline on every workload family.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.certify import (
    TAMPER_CLASSES,
    CompactDecodeError,
    apply_tamper,
    build_certificates,
    encode_certificates,
    verify_compact,
    verify_distributed,
)
from repro.certify.compact import _id_bits
from repro.certify.labels import DartLabel
from repro.planar import planar_embedding
from repro.planar.generators import (
    cycle_graph,
    grid_graph,
    random_maximal_planar,
    random_outerplanar,
    random_tree,
    triangulated_grid,
)
from tests.certify.codec_reference import BitReader, BitWriter

FAMILIES = [
    ("grid", lambda: grid_graph(5, 5)),
    ("trigrid", lambda: triangulated_grid(4, 4)),
    ("cycle", lambda: cycle_graph(12)),
    ("maximal", lambda: random_maximal_planar(24, seed=3)),
    ("outerplanar", lambda: random_outerplanar(20, seed=4)),
    ("tree", lambda: random_tree(18, seed=5)),
]


def certified(graph):
    rotation = planar_embedding(graph)
    certs = build_certificates(graph, rotation)
    rotmap = {v: tuple(rotation.order(v)) for v in graph.nodes()}
    return rotmap, certs


# -- bit plumbing (the test-local reference's BitWriter/BitReader) ---------


@given(st.lists(st.integers(min_value=-(2**80), max_value=2**80), max_size=40))
@settings(max_examples=150, deadline=None)
def test_varint_round_trip(values):
    w = BitWriter()
    for v in values:
        w.write_varint(v)
    blob, nbits = w.getvalue()
    r = BitReader(blob, nbits)
    assert [r.read_varint() for _ in values] == values
    r.expect_exhausted()


@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=24), st.integers(min_value=0)),
        max_size=30,
    ).map(lambda ps: [(w, v & ((1 << w) - 1)) for w, v in ps])
)
@settings(max_examples=150, deadline=None)
def test_fixed_width_round_trip(fields):
    w = BitWriter()
    for width, value in fields:
        w.write_bits(value, width)
    blob, nbits = w.getvalue()
    assert nbits == sum(width for width, _ in fields)
    r = BitReader(blob, nbits)
    assert [r.read_bits(width) for width, _ in fields] == [v for _, v in fields]
    r.expect_exhausted()


def test_writer_rejects_overflow_and_reader_rejects_truncation():
    w = BitWriter()
    with pytest.raises(ValueError):
        w.write_bits(4, 2)
    w.write_bits(3, 2)
    blob, nbits = w.getvalue()
    r = BitReader(blob, nbits)
    with pytest.raises(CompactDecodeError):
        r.read_bits(3)
    with pytest.raises(CompactDecodeError):
        BitReader(b"\x00", 9)  # claimed length beyond the blob


# -- label round-trips -----------------------------------------------------


@pytest.mark.parametrize("name,make", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_honest_labels_round_trip_bit_exact(name, make):
    g = make()
    _, certs = certified(g)
    compact = encode_certificates(g, certs)
    assert compact.decode() == certs
    assert set(compact.size_bits()) == set(certs.labels)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_arbitrary_field_values_round_trip(data):
    """The codec is total over tampered labels, not just honest ones."""
    g = grid_graph(3, 3)
    _, certs = certified(g)
    node = data.draw(st.sampled_from(sorted(certs.labels, key=repr)))
    label = certs.labels[node]
    field = data.draw(
        st.sampled_from(
            ["depth", "n", "m", "f", "subtree_vertices", "subtree_degree",
             "subtree_faces", "face_leaders"]
        )
    )
    setattr(label, field, data.draw(st.integers(min_value=-(2**40), max_value=2**40)))
    if label.darts:
        w = data.draw(st.sampled_from(sorted(label.darts, key=repr)))
        label.darts[w] = DartLabel(
            face=label.darts[w].face,
            length=data.draw(st.integers(min_value=-(2**20), max_value=2**20)),
            index=data.draw(st.integers(min_value=-(2**20), max_value=2**20)),
        )
    compact = encode_certificates(g, certs)
    assert compact.decode() == certs


def test_decode_is_strict():
    g = grid_graph(3, 3)
    _, certs = certified(g)
    compact = encode_certificates(g, certs)
    node = next(iter(compact))
    blob, nbits = compact.blobs[node]

    # Truncation: drop the final bit.
    bad = compact.copy()
    bad.blobs[node] = (blob, nbits - 1)
    with pytest.raises(CompactDecodeError):
        bad.decode()

    # Trailing garbage: claim one extra zero bit.
    bad = compact.copy()
    bad.blobs[node] = (blob + b"\x00", nbits + 1)
    with pytest.raises(CompactDecodeError):
        bad.decode()

    # Out-of-range node index: n=9 ids use 4 bits, so 0b1111 = 15 >= 9.
    id_bits = _id_bits(len(compact.nodes))
    w = BitWriter()
    w.write_bits((1 << id_bits) - 1, id_bits)
    garbage, gbits = w.getvalue()
    bad = compact.copy()
    bad.blobs[node] = (garbage, gbits)
    with pytest.raises(CompactDecodeError):
        bad.decode()

    labels, errors = bad.decode_lenient()
    assert node in errors and node not in labels.labels


def test_implausible_dart_count_rejected():
    g = grid_graph(3, 3)
    table = tuple(g.nodes())
    id_bits = _id_bits(len(table))
    w = BitWriter()
    w.write_bits(0, id_bits)  # root
    w.write_bits(0, 1)  # no parent
    for _ in range(8):
        w.write_varint(0)
    w.write_varint(len(table) + 1)  # more darts than nodes exist
    blob, nbits = w.getvalue()
    from repro.certify import CompactCertificateSet

    bad = CompactCertificateSet(nodes=table, blobs={table[0]: (blob, nbits)})
    with pytest.raises(CompactDecodeError):
        bad.decode()


# -- the verifier shim -----------------------------------------------------


@pytest.mark.parametrize("name,make", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_verify_compact_matches_word_verifier(name, make):
    g = make()
    rotmap, certs = certified(g)
    word_report = verify_distributed(g, rotmap, certs)
    compact_report = verify_compact(g, rotmap, encode_certificates(g, certs))
    assert compact_report.accepted and word_report.accepted
    assert compact_report.rounds == word_report.rounds
    assert compact_report.decode_errors is None


@pytest.mark.parametrize("name,make", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_compact_beats_word_baseline(name, make):
    g = make()
    _, certs = certified(g)
    compact = encode_certificates(g, certs)
    baseline = sum(certs.size_bits().values())
    assert 0 < compact.total_bits() < baseline
    report = verify_compact(
        g, {v: tuple(planar_embedding(g).order(v)) for v in g.nodes()}, compact
    )
    assert report.label_bits_total == compact.total_bits()
    assert report.label_bits_max == compact.max_bits()
    assert report.to_dict()["label_bits_total"] == compact.total_bits()


def test_undecodable_blob_is_rejected_as_missing():
    g = grid_graph(4, 4)
    rotmap, certs = certified(g)
    compact = encode_certificates(g, certs)
    node = sorted(compact, key=repr)[3]
    blob, nbits = compact.blobs[node]
    compact.blobs[node] = (blob, nbits - 1)  # truncate
    report = verify_compact(g, rotmap, compact)
    assert not report.accepted
    assert report.decode_errors and repr(node) in report.decode_errors
    assert any(r.predicate == "certificate-missing" for r in report.rejections)


# -- soundness carries over ------------------------------------------------


@pytest.mark.parametrize("cls", sorted(TAMPER_CLASSES))
def test_tamper_classes_detected_through_codec(cls):
    """Every adversary class from E14, replayed through encode→decode."""
    g = triangulated_grid(4, 4)
    rotmap, certs = certified(g)
    detections = 0
    trials = 4
    for trial in range(trials):
        rot = {v: tuple(order) for v, order in rotmap.items()}
        tampered = certs.copy()
        apply_tamper(cls, g, rot, tampered, seed=100 + trial)
        compact = encode_certificates(g, tampered)
        report = verify_compact(g, rot, compact)
        detections += 0 if report.accepted else 1
    assert detections == trials


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_packed_bit_flip_detected(data):
    """Flipping any single bit of any packed blob is always caught —
    either by the strict decoder or by a verifier predicate."""
    g = grid_graph(4, 4)
    rotmap, certs = certified(g)
    compact = encode_certificates(g, certs)
    node = data.draw(st.sampled_from(sorted(compact, key=repr)))
    nbits = compact.blobs[node][1]
    bit = data.draw(st.integers(min_value=0, max_value=nbits - 1))
    tampered = compact.copy()
    tampered.flip_bit(node, bit)
    report = verify_compact(g, rotmap, tampered)
    assert not report.accepted
