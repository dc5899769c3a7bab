"""The wire format: canonical byte encoding, CRC framing, and the
guarantee that corruption is a *typed, countable* event.

Satellite contract: a corrupted frame must raise (or be counted as)
:class:`repro.congest.errors.MessageCorruptionError` — never propagate a
bare ``ValueError``/``struct.error``, never silently decode to a wrong
payload the receiver would act on.
"""

from __future__ import annotations

import pytest

from repro.congest import (
    FaultPlan,
    Message,
    MessageCorruptionError,
    RoundMetrics,
    decode_payload,
    encode_payload,
    flip_bit,
)
from repro.congest.node import NodeProgram
from repro.planar import generators

PAYLOADS = [
    None,
    True,
    False,
    0,
    -1,
    12345678901234567890,
    -(1 << 200),
    3.5,
    -0.0,
    "",
    "hello",
    "üñïçødé ✓",
    (),
    ("tag", 7),
    ("nested", ("deep", (1, 2, (3,)))),
    [1, "two", 3.0],
    {"a": 1, "b": (2, 3)},
    {1: "one", ("k",): None},
    set(),
    {1, 2, 3},
    ("mixed", [{"s": {1, 2}}, frozenset({"f"})], None),
]

# The repr of a set of strings follows string hash order, which changes
# from one interpreter run to the next.  This frozenset is built from its
# elements in both orders, each case named by the order it was built from,
# so the test ids are the same in every run.
FROZENSET_BUILD_ORDERS = [(("x", 1), ("y", 2)), (("y", 2), ("x", 1))]

ROUND_TRIP_CASES = [pytest.param(p, id=repr(p)[:40]) for p in PAYLOADS] + [
    pytest.param(frozenset(items), id=f"frozenset({{{', '.join(map(repr, items))}}})")
    for items in FROZENSET_BUILD_ORDERS
]


@pytest.mark.parametrize("payload", ROUND_TRIP_CASES)
def test_payload_round_trip(payload):
    assert decode_payload(encode_payload(payload)) == payload


def test_bool_int_not_conflated():
    """``True == 1`` but the wire keeps the types distinct."""
    for a, b in ((True, 1), (False, 0)):
        assert encode_payload(a) != encode_payload(b)
        assert decode_payload(encode_payload(a)) is a


def test_sets_and_dicts_canonical():
    """Equal values encode to identical bytes regardless of build order."""
    assert encode_payload({3, 1, 2}) == encode_payload({2, 3, 1})
    d1 = {"a": 1, "b": 2}
    d2 = {"b": 2, "a": 1}
    assert encode_payload(d1) == encode_payload(d2)


def test_unsupported_type_raises_typeerror():
    with pytest.raises(TypeError):
        encode_payload(object())
    with pytest.raises(TypeError):
        encode_payload(("outer", b"bytes"))


def test_message_round_trip():
    msg = Message(("v", 0), ("v", 1), ("bfs", 3, (1, 2)))
    assert Message.decode(msg.encode()) == msg


class TestCorruptionIsTyped:
    """Every malformation → MessageCorruptionError, nothing else."""

    def test_every_single_bit_flip_detected(self):
        """CRC-32 catches 100% of single-bit errors — exhaustively."""
        blob = Message(1, 2, ("payload", 42)).encode()
        for bit in range(len(blob) * 8):
            with pytest.raises(MessageCorruptionError):
                Message.decode(flip_bit(blob, bit))

    def test_truncation(self):
        blob = Message(1, 2, "hello").encode()
        for cut in (0, 1, 7, len(blob) - 1):
            with pytest.raises(MessageCorruptionError):
                Message.decode(blob[:cut])

    def test_trailing_garbage(self):
        blob = Message(1, 2, "hello").encode()
        with pytest.raises(MessageCorruptionError):
            Message.decode(blob + b"\x00")

    def test_garbage_bytes(self):
        for blob in (b"", b"\xff" * 16, b"not a frame at all"):
            with pytest.raises(MessageCorruptionError):
                Message.decode(blob)
        # A well-framed body (CRC intact) that is not a 3-tuple.
        import zlib

        body = encode_payload((1, 2, "x", 7))
        framed = len(body).to_bytes(4, "big") + body + zlib.crc32(body).to_bytes(4, "big")
        with pytest.raises(MessageCorruptionError, match="not a .sender, receiver, payload. tuple"):
            Message.decode(framed)

    def test_payload_body_malformations_wrapped(self):
        """Direct body decoding wraps struct/unicode errors too."""
        cases = [
            b"",  # truncated
            b"Q",  # unknown tag
            b"i\x00\x05ab",  # int claims 5 bytes, has 2
            b"s\x00\x00\x00\x05ab",  # str claims 5 bytes, has 2
            b"s\x00\x00\x00\x02\xff\xfe",  # invalid utf-8
            b"t\xff\xff\xff\xff",  # implausible container size
            b"f\x00",  # truncated float
            encode_payload("ok") + b"X",  # trailing bytes
        ]
        for body in cases:
            with pytest.raises(MessageCorruptionError):
                decode_payload(body)

    def test_nesting_bomb_rejected(self):
        body = b"t\x00\x00\x00\x01" * 100 + b"N"
        with pytest.raises(MessageCorruptionError):
            decode_payload(body)

    def test_corruption_error_is_typed_not_bare(self):
        """The exception is a CongestError subclass, not a ValueError a
        caller might conflate with its own validation."""
        from repro.congest import CongestError

        blob = Message(1, 2, "x").encode()
        try:
            Message.decode(flip_bit(blob, 13))
        except MessageCorruptionError as exc:
            assert isinstance(exc, CongestError)
            assert not isinstance(exc, ValueError)
        else:  # pragma: no cover
            pytest.fail("corrupted frame decoded cleanly")


class _Flood(NodeProgram):
    """Minimal flood used to push real frames through a corrupting net."""

    event_driven = True

    def on_start(self):
        self.done = True
        return {u: ("hi", self.node_id) for u in self.neighbors}

    def on_round(self, round_no, inbox):
        return {}


class TestCorruptionCounted:
    def test_partial_corruption_absorbed_and_counted(self):
        """Under a 40% corruption schedule the run still completes (the
        transparent ARQ wrap retransmits what the CRC discarded), every
        hit is counted, and none ever decodes."""
        from repro.congest import CongestNetwork

        graph = generators.cycle_graph(6)
        plan = FaultPlan(seed=5, corruption_rate=0.4)
        m = RoundMetrics()
        network = CongestNetwork(graph, metrics=m, faults=plan)
        programs = {v: _Flood(v, graph.neighbors(v)) for v in graph.nodes()}
        results = network.run(programs, phase="flood")
        assert set(results) == set(graph.nodes())
        stats = network.fault_stats
        assert stats.corrupted > 0
        assert stats.corruption_detected == stats.corrupted
        assert stats.corruption_delivered == 0

    def test_total_corruption_exhausts_typed_budget(self):
        """corrupt=1.0 kills every frame; the reliable layer gives up
        with the *typed* budget error — the CRC never lets a garbled
        frame through to a program, and nothing raises a bare
        ValueError."""
        from repro.congest import CongestNetwork, RetransmitBudgetExceededError

        graph = generators.path_graph(3)
        plan = FaultPlan(seed=2, corruption_rate=1.0)
        m = RoundMetrics()
        network = CongestNetwork(graph, metrics=m, faults=plan)
        programs = {v: _Flood(v, graph.neighbors(v)) for v in graph.nodes()}
        with pytest.raises(RetransmitBudgetExceededError):
            network.run(programs, phase="flood")
        stats = network.fault_stats
        assert stats.corrupted > 0
        assert stats.corruption_detected == stats.corrupted
        assert stats.corruption_delivered == 0
