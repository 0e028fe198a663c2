"""Wire message format.

A protocol message is ``(pid, mtype, payload)``: the protocol-instance
identifier that every SINTRA protocol carries (paper Sec. 2), a short
message-type string (e.g. ``"echo"``, ``"pre-vote"``), and an arbitrary
canonically-encodable payload.  The sender identity is *not* part of the
body — it is established by the authenticated link layer
(:mod:`repro.net.links`), exactly as in the paper where point-to-point
links are HMAC-authenticated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError, TransportError


@dataclass(frozen=True)
class Message:
    """A received protocol message with its authenticated sender."""

    sender: int
    pid: str
    mtype: str
    payload: Any


def pack_body(pid: str, mtype: str, payload: Any) -> bytes:
    """Serialize a protocol message body."""
    return encode((pid, mtype, payload))


def unpack_body(sender: int, data: bytes) -> Message:
    """Parse a message body received from ``sender``."""
    try:
        fields = decode(data)
    except EncodingError as exc:
        raise TransportError("malformed message body") from exc
    # a tuple or list only: a 3-character string would unpack too
    if not isinstance(fields, (tuple, list)) or len(fields) != 3:
        raise TransportError("malformed message body")
    pid, mtype, payload = fields
    if not isinstance(pid, str) or not isinstance(mtype, str):
        raise TransportError("malformed message header")
    return Message(sender=sender, pid=pid, mtype=mtype, payload=payload)
