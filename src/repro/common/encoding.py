"""Canonical, deterministic binary encoding for protocol and crypto payloads.

Every value that is hashed, signed, MAC-ed or sent over the wire in this
package is first serialized with :func:`encode`.  The format is a simple
length-prefixed tag-value scheme:

======  =======================================================
tag     payload
======  =======================================================
``N``   none (no payload)
``T``   true (no payload)
``F``   false (no payload)
``I``   4-byte length, sign byte (``+``/``-``), magnitude bytes
``B``   4-byte length, raw bytes
``S``   4-byte length, UTF-8 bytes
``L``   4-byte count, encoded items (decodes to ``list``)
``U``   4-byte count, encoded items (decodes to ``tuple``)
======  =======================================================

The encoding is canonical: equal values always produce equal byte strings,
which is required for signatures and hashes to be well-defined.
"""

from __future__ import annotations

import struct
from typing import Any, Tuple

from repro.common.errors import EncodingError

_head = struct.Struct(">BI").pack  # tag, 4-byte length or count
_int_head = struct.Struct(">BIB").pack  # tag, 4-byte magnitude length, sign
_unpack_len = struct.Struct(">I").unpack_from
_TAG_N, _TAG_T, _TAG_F, _TAG_I, _TAG_B, _TAG_S, _TAG_L, _TAG_U = b"NTFIBSLU"
_PLUS, _MINUS = b"+-"


def encode(value: Any) -> bytes:
    """Serialize ``value`` into canonical bytes.

    Supported types: ``None``, ``bool``, ``int``, ``bytes``, ``str``,
    ``list`` and ``tuple`` (recursively).
    """
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def _encode_into(value: Any, out: bytearray) -> None:
    # Exact types first, most frequent first; subclasses and the other
    # bytes-likes are normalized by the isinstance chain at the end.
    kind = type(value)
    if kind is bytes:
        out += _head(_TAG_B, len(value))
        out += value
    elif kind is int:
        if 0 < value < 256:  # party indices, rounds, kinds: most integers sent
            out += b"I\x00\x00\x00\x01+"
            out.append(value)
        elif not value:
            out += b"I\x00\x00\x00\x00+"
        else:
            mag = abs(value)
            size = (mag.bit_length() + 7) >> 3
            out += _int_head(_TAG_I, size, _MINUS if value < 0 else _PLUS)
            out += mag.to_bytes(size, "big")
    elif kind is tuple or kind is list:
        out += _head(_TAG_U if kind is tuple else _TAG_L, len(value))
        for item in value:
            _encode_into(item, out)
    elif kind is str:
        data = value.encode("utf-8")
        out += _head(_TAG_S, len(data))
        out += data
    elif value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        _encode_into(int.__int__(value), out)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        _encode_into(bytes(value), out)
    elif isinstance(value, str):
        _encode_into(str.__str__(value), out)
    elif isinstance(value, (list, tuple)):
        _encode_into(list(value) if isinstance(value, list) else tuple(value), out)
    else:
        raise EncodingError(f"cannot encode value of type {type(value).__name__}")


def decode(data: bytes) -> Any:
    """Decode canonical bytes back into a value.

    Raises :class:`~repro.common.errors.EncodingError` on malformed input or
    trailing garbage.
    """
    if type(data) is not bytes:
        data = bytes(data)  # bytes-likes decode to the values ``bytes`` does
    value, offset = _decode_from(data, 0, len(data))
    if offset != len(data):
        raise EncodingError(f"{len(data) - offset} trailing bytes after value")
    return value


def _decode_from(data: bytes, offset: int, size: int) -> Tuple[Any, int]:
    if offset >= size:
        raise EncodingError("truncated input: missing tag")
    tag = data[offset]
    body = offset + 5  # past the tag and a 4-byte length
    if tag == _TAG_I:
        if body > size:
            raise EncodingError("truncated length prefix")
        end = body + 1 + _unpack_len(data, offset + 1)[0]
        if end > size:
            raise EncodingError("truncated integer")
        sign = data[body]
        if end == body + 2:
            mag = data[body + 1]
        else:
            mag = int.from_bytes(data[body + 1 : end], "big")
        if sign == _PLUS:
            return mag, end
        if sign != _MINUS:
            raise EncodingError(f"bad integer sign byte {bytes((sign,))!r}")
        if mag == 0:
            raise EncodingError("negative zero is not canonical")
        return -mag, end
    if tag == _TAG_B or tag == _TAG_S:
        if body > size:
            raise EncodingError("truncated length prefix")
        end = body + _unpack_len(data, offset + 1)[0]
        if end > size:
            raise EncodingError("truncated bytes/string")
        if tag == _TAG_B:
            return data[body:end], end
        try:
            return data[body:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise EncodingError("invalid UTF-8 in string") from exc
    if tag == _TAG_U or tag == _TAG_L:
        if body > size:
            raise EncodingError("truncated length prefix")
        items = []
        for _ in range(_unpack_len(data, offset + 1)[0]):
            item, body = _decode_from(data, body, size)
            items.append(item)
        return (items if tag == _TAG_L else tuple(items)), body
    if tag == _TAG_N:
        return None, offset + 1
    if tag == _TAG_T:
        return True, offset + 1
    if tag == _TAG_F:
        return False, offset + 1
    raise EncodingError(f"unknown tag byte {bytes((tag,))!r}")
