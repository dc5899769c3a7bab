"""``payload_words`` agrees with the recursive ``isinstance`` definition.

The simulator measures every message once, for both the bandwidth check
and the ledger, with a one-pass ``payload_words`` that matches the
protocol atoms on their exact type.  Python equality crosses types
(``2 == 2.0 == True``) while the measurement does not, so the one-pass
form is checked against a plain recursive reference on generated
payloads: subclasses, sets, dicts and nesting included.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.certify import build_certificates
from repro.certify.verifier import CertVerifierProgram
from repro.congest import message, payload_words
from repro.planar import planar_embedding
from repro.planar.generators import grid_graph

SIZES = (3, 4, 12, 32, 64)


def reference_words(payload, bits_per_word):
    """The recursive ``isinstance`` definition of a payload's words."""
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        magnitude_bits = max(1, payload.bit_length()) + 1  # +1 sign
        return max(1, math.ceil(magnitude_bits / bits_per_word))
    if isinstance(payload, float):
        return max(1, math.ceil(64 / bits_per_word))
    if isinstance(payload, str):
        return max(1, math.ceil(len(payload) / 4))
    if isinstance(payload, (tuple, list, frozenset, set)):
        items = sorted(payload, key=repr) if isinstance(payload, (set, frozenset)) else payload
        return sum(reference_words(item, bits_per_word) for item in items)
    if isinstance(payload, dict):
        return sum(
            reference_words(k, bits_per_word) + reference_words(v, bits_per_word)
            for k, v in payload.items()
        )
    raise TypeError(f"unsupported payload type for CONGEST accounting: {type(payload)!r}")


class Level(IntEnum):
    LOW = 3
    HIGH = 1 << 40


Pair = namedtuple("Pair", "left right")

# 0 and, for every word size b, the largest one-word magnitude and the
# smallest two-word one: +-(2**(b-1) - 1) and +-2**(b-1).
EDGE_INTS = sorted(
    {0} | {s * (2 ** (b - 1) - d) for b in SIZES for d in (0, 1) for s in (1, -1)}
)

ATOMS = st.one_of(
    st.sampled_from(EDGE_INTS),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.booleans(),
    st.none(),
    st.floats(),
    st.text(max_size=9),
    st.sampled_from(list(Level)),
)


def hashable_payloads(depth):
    if depth == 0:
        return ATOMS
    inner = hashable_payloads(depth - 1)
    return st.one_of(
        ATOMS,
        st.lists(inner, max_size=4).map(tuple),
        st.frozensets(inner, max_size=4),
        st.builds(Pair, inner, inner),
    )


def payloads(depth):
    if depth == 0:
        return ATOMS
    inner = payloads(depth - 1)
    keys = hashable_payloads(depth - 1)
    return st.one_of(
        ATOMS,
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4),
        st.sets(keys, max_size=4),
        st.frozensets(keys, max_size=4),
        st.dictionaries(keys, inner, max_size=3),
        st.builds(Pair, inner, inner),
    )


@settings(max_examples=400, deadline=None)
@given(bits=st.sampled_from(SIZES), payload=payloads(3))
def test_matches_the_recursive_isinstance_rules(bits, payload):
    assert payload_words(payload, bits) == reference_words(payload, bits)


BYTES_PLACEMENTS = [
    lambda p, blob: blob,
    lambda p, blob: (p, blob),
    lambda p, blob: [blob, p],
    lambda p, blob: ("x", (p, [blob])),
    lambda p, blob: {0: p, 1: blob},
    lambda p, blob: {blob: p},
    lambda p, blob: frozenset({blob}),
    lambda p, blob: Pair(p, blob),
]


@settings(max_examples=100, deadline=None)
@given(
    bits=st.sampled_from(SIZES),
    payload=payloads(2),
    blob=st.binary(max_size=3),
    place=st.sampled_from(BYTES_PLACEMENTS),
)
def test_bytes_anywhere_raise_type_error(bits, payload, blob, place):
    wrapped = place(payload, blob)
    with pytest.raises(TypeError):
        reference_words(wrapped, bits)
    with pytest.raises(TypeError, match="bytes"):
        payload_words(wrapped, bits)


@pytest.mark.parametrize(
    "payload, words",
    [
        # 2 == 2.0 == True, but at 5-bit words the int is one word, the
        # float 64 bits and the bool a tag.
        (2, 1),
        (2.0, 13),
        (True, 1),
        (("x", 2), 2),
        (("x", 2.0), 14),
        (("x", True), 2),
        # equal values and equal top-level item types; the nested item differs
        (("x", (2,)), 2),
        (("x", (2.0,)), 14),
        (("tag", [1, 2, 3]), 4),
    ],
    ids=[
        "int", "float", "bool", "flat-int", "flat-float", "flat-bool",
        "nested-int", "nested-float", "holding-a-list",
    ],
)
def test_pinned_payloads_measure_by_type(payload, words):
    assert payload_words(payload, 5) == reference_words(payload, 5) == words


def test_verifier_message_costs_one_call_per_container_level(monkeypatch):
    """A verifier exchange message ``("crt", <10 tree fields>, <4 dart
    fields>)`` is measured in one call per container level, not one per
    field."""
    g = grid_graph(4, 4)
    rotation = planar_embedding(g)
    certs = build_certificates(g, rotation)
    v = next(v for v, lab in certs.labels.items() if lab.parent is not None)
    label = certs.labels[v]
    u = next(iter(label.darts))
    program = CertVerifierProgram(v, g.neighbors(v), label, tuple(rotation.order(v)))
    msg = program._message_for(u)
    tag, fields, dart = msg
    assert tag == "crt" and len(fields) == 10 and len(dart) == 4
    assert all(type(x) is int for x in fields + dart)

    calls = [0]
    measure = message.payload_words

    def counting(payload, bits_per_word=32):
        calls[0] += 1
        return measure(payload, bits_per_word)

    monkeypatch.setattr(message, "payload_words", counting)
    bits = message.word_bits(g.num_nodes)
    assert message.payload_words(msg, bits) == reference_words(msg, bits)
    assert calls[0] <= 3
