"""Message payloads: CONGEST size accounting and the wire format.

The CONGEST model allows one ``O(log n)``-bit message per edge per round.
We account sizes in *words*, where one word is ``ceil(log2(n+1)) + 2``
bits — enough for a node identifier, a small tag, or a bounded counter.
A payload is measured by flattening it into atoms:

* ``None``/booleans: tag only (counted as one atom, conservatively),
* integers: one word per ``word_bits`` chunk of their magnitude (plus a
  sign bit),
* floats: 64 bits,
* strings (protocol tags): one word per 4 characters (conservative),
* tuples/lists/sets/frozensets: the sum of their items; dicts: the sum
  of their keys and values.

This is intentionally a *conservative over-estimate*: the experiments that
check the bandwidth discipline (E9) use these measured sizes, so erring on
the large side only makes the reproduced claims harder to satisfy.

Every message the simulator delivers is measured once, directly, for
both the bandwidth check and the ledger: :func:`payload_words` walks a
tuple's items in one pass and recurses only into nested containers.
There is no cache — protocol messages such as a verifier's
``("crt", <tree fields>, <dart fields>)`` are mostly unique, and the
flat pass is cheaper than computing a type-aware cache key.

Wire format
-----------

The fault-injection layer (:mod:`repro.congest.faults`) corrupts
messages the way real links do — by flipping bits in a byte stream — so
payloads need a canonical byte encoding.  :class:`Message` frames a
``(sender, receiver, payload)`` triple as::

    [4-byte big-endian body length] [body] [4-byte CRC-32 of the body]

where the body is a tagged recursive encoding of the triple covering
exactly the types :func:`payload_words` accounts for.  Decoding is
*total*: any checksum mismatch, truncation, bad tag, or malformed field
raises the typed :class:`~repro.congest.errors.MessageCorruptionError`
— never a bare ``ValueError``/``struct.error`` — so corruption is a
countable event, not a crash.  CRC-32 detects every single-bit flip, so
a corrupted frame is always caught at the receiving link layer.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from typing import Any

from .errors import MessageCorruptionError

__all__ = [
    "word_bits",
    "payload_words",
    "payload_bits",
    "Message",
    "encode_payload",
    "decode_payload",
    "flip_bit",
]


def word_bits(n: int) -> int:
    """Bits in one CONGEST word for an ``n``-node network."""
    if n < 1:
        raise ValueError("network must have at least one node")
    return max(1, math.ceil(math.log2(n + 1))) + 2


def payload_words(payload: object, bits_per_word: int = 32) -> int:
    """Measure a payload in words (see module docstring).

    One pass over a tuple's or list's items: the protocol atoms
    (``int``, ``str``, ``None``, ``bool``) are matched on their exact
    type and measured inline, and only nested containers recurse.  Every
    other value — floats, sets, frozensets, dicts, subclasses such as an
    ``IntEnum`` member or a namedtuple — follows the ``isinstance`` rules
    of :func:`_other_words`, so a subclass measures as its base type.
    """
    cls = payload.__class__
    if cls is not tuple and cls is not list:
        payload = (payload,)
    words = 0
    for item in payload:
        cls = item.__class__
        if cls is int:
            bits = item.bit_length() or 1
            # one word when the magnitude plus a sign bit fit in it
            words += 1 if bits < bits_per_word else _int_words(bits, bits_per_word)
        elif cls is str:
            words += (len(item) + 3) // 4 or 1
        elif cls is tuple or cls is list:
            words += payload_words(item, bits_per_word)
        elif item is None or cls is bool:
            words += 1
        else:
            words += _other_words(item, bits_per_word)
    return words


def _int_words(magnitude_bits: int, bits_per_word: int) -> int:
    return max(1, math.ceil((magnitude_bits + 1) / bits_per_word))  # +1 sign


def _other_words(value: object, bits_per_word: int) -> int:
    """Words of a value :func:`payload_words` does not match on exact type."""
    if isinstance(value, int):
        return _int_words(value.bit_length() or 1, bits_per_word)
    if isinstance(value, float):
        return max(1, math.ceil(64 / bits_per_word))
    if isinstance(value, str):
        return (len(value) + 3) // 4 or 1
    if isinstance(value, (tuple, list, frozenset, set)):
        return payload_words(list(value), bits_per_word)
    if isinstance(value, dict):
        return payload_words([*value.keys(), *value.values()], bits_per_word)
    raise TypeError(f"unsupported payload type for CONGEST accounting: {type(value)!r}")


def payload_bits(payload: object, n: int) -> int:
    """Measure a payload in bits, for an ``n``-node network's word size."""
    bits = word_bits(n)
    return payload_words(payload, bits) * bits


# -- wire format -------------------------------------------------------------

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_TUPLE = b"t"
_TAG_LIST = b"l"
_TAG_SET = b"e"
_TAG_FROZENSET = b"z"
_TAG_DICT = b"d"


def encode_payload(obj: Any) -> bytes:
    """Encode one payload into the canonical tagged byte form.

    Supports exactly the types :func:`payload_words` accounts for; sets
    and dicts are serialized in ``repr``-sorted order so equal values
    always produce identical bytes.  Raises ``TypeError`` for anything
    else (the caller decides how an unencodable payload behaves under
    corruption).
    """
    out = bytearray()
    _encode_into(obj, out)
    return bytes(out)


def _encode_into(obj: Any, out: bytearray) -> None:
    if obj is None:
        out += _TAG_NONE
    elif isinstance(obj, bool):  # before int: bool is an int subclass
        out += _TAG_TRUE if obj else _TAG_FALSE
    elif isinstance(obj, int):
        body = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
        out += _TAG_INT
        out += struct.pack(">H", len(body))
        out += body
    elif isinstance(obj, float):
        out += _TAG_FLOAT
        out += struct.pack(">d", obj)
    elif isinstance(obj, str):
        body = obj.encode("utf-8")
        out += _TAG_STR
        out += struct.pack(">I", len(body))
        out += body
    elif isinstance(obj, (tuple, list)):
        out += _TAG_TUPLE if isinstance(obj, tuple) else _TAG_LIST
        out += struct.pack(">I", len(obj))
        for item in obj:
            _encode_into(item, out)
    elif isinstance(obj, (set, frozenset)):
        out += _TAG_FROZENSET if isinstance(obj, frozenset) else _TAG_SET
        items = sorted(obj, key=repr)
        out += struct.pack(">I", len(items))
        for item in items:
            _encode_into(item, out)
    elif isinstance(obj, dict):
        out += _TAG_DICT
        items = sorted(obj.items(), key=lambda kv: repr(kv[0]))
        out += struct.pack(">I", len(items))
        for k, v in items:
            _encode_into(k, out)
            _encode_into(v, out)
    else:
        raise TypeError(f"unsupported payload type for the wire format: {type(obj)!r}")


#: Anything larger claims a body the 4-byte frame header could never
#: have carried honestly; bail before allocating.
_MAX_ITEMS = 1 << 24


def decode_payload(data: bytes) -> Any:
    """Inverse of :func:`encode_payload`.

    Total: every malformation raises
    :class:`~repro.congest.errors.MessageCorruptionError`, including
    trailing bytes after a well-formed value.
    """
    try:
        obj, offset = _decode_from(data, 0, 0)
    except MessageCorruptionError:
        raise
    except Exception as exc:  # struct.error, UnicodeDecodeError, Overflow...
        raise MessageCorruptionError(f"malformed payload body: {exc}") from exc
    if offset != len(data):
        raise MessageCorruptionError(
            f"{len(data) - offset} trailing bytes after payload body"
        )
    return obj


def _decode_from(data: bytes, offset: int, depth: int) -> tuple[Any, int]:
    if depth > 64:
        raise MessageCorruptionError("payload nesting exceeds the wire-format limit")
    if offset >= len(data):
        raise MessageCorruptionError("truncated payload body")
    tag = data[offset:offset + 1]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        (length,) = struct.unpack_from(">H", data, offset)
        offset += 2
        if offset + length > len(data):
            raise MessageCorruptionError("truncated integer field")
        return int.from_bytes(data[offset:offset + length], "big", signed=True), offset + length
    if tag == _TAG_FLOAT:
        (value,) = struct.unpack_from(">d", data, offset)
        return value, offset + 8
    if tag == _TAG_STR:
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        if length > _MAX_ITEMS or offset + length > len(data):
            raise MessageCorruptionError("truncated string field")
        return data[offset:offset + length].decode("utf-8"), offset + length
    if tag in (_TAG_TUPLE, _TAG_LIST, _TAG_SET, _TAG_FROZENSET):
        (count,) = struct.unpack_from(">I", data, offset)
        offset += 4
        if count > _MAX_ITEMS:
            raise MessageCorruptionError(f"implausible container size {count}")
        items = []
        for _ in range(count):
            item, offset = _decode_from(data, offset, depth + 1)
            items.append(item)
        if tag == _TAG_TUPLE:
            return tuple(items), offset
        if tag == _TAG_LIST:
            return items, offset
        if tag == _TAG_SET:
            return set(items), offset
        return frozenset(items), offset
    if tag == _TAG_DICT:
        (count,) = struct.unpack_from(">I", data, offset)
        offset += 4
        if count > _MAX_ITEMS:
            raise MessageCorruptionError(f"implausible container size {count}")
        result = {}
        for _ in range(count):
            k, offset = _decode_from(data, offset, depth + 1)
            v, offset = _decode_from(data, offset, depth + 1)
            result[k] = v
        return result, offset
    raise MessageCorruptionError(f"unknown wire tag {tag!r}")


@dataclass(frozen=True)
class Message:
    """One framed CONGEST message: ``(sender, receiver, payload)``.

    ``encode``/``decode`` round-trip through the length-prefixed,
    CRC-32-protected byte frame described in the module docstring.
    """

    sender: Any
    receiver: Any
    payload: Any

    def encode(self) -> bytes:
        body = encode_payload((self.sender, self.receiver, self.payload))
        return struct.pack(">I", len(body)) + body + struct.pack(">I", zlib.crc32(body))

    @classmethod
    def decode(cls, blob: bytes) -> "Message":
        if len(blob) < 8:
            raise MessageCorruptionError(f"frame too short ({len(blob)} bytes)")
        (length,) = struct.unpack_from(">I", blob, 0)
        if len(blob) != length + 8:
            raise MessageCorruptionError(
                f"frame length mismatch: header claims {length} body bytes, "
                f"frame carries {len(blob) - 8}"
            )
        body = blob[4:4 + length]
        (crc,) = struct.unpack_from(">I", blob, 4 + length)
        if zlib.crc32(body) != crc:
            raise MessageCorruptionError("CRC-32 checksum mismatch")
        fields = decode_payload(body)
        if not isinstance(fields, tuple) or len(fields) != 3:
            raise MessageCorruptionError(
                "frame body is not a (sender, receiver, payload) tuple"
            )
        return cls(*fields)


def flip_bit(blob: bytes, bit: int) -> bytes:
    """Return ``blob`` with one bit flipped (the fault layer's corruption)."""
    i, shift = divmod(bit % (len(blob) * 8), 8)
    out = bytearray(blob)
    out[i] ^= 1 << shift
    return bytes(out)
