"""Authenticated point-to-point links (paper Secs. 2, 3): who sent a frame.

Every pair of servers shares an HMAC key from the dealer.  The rule, for
both runtimes: **a frame's sender is the link it arrived on** — a fact
the carrier supplies, never a field the frame asserts.

* Simulator wire: ``encode((sender, tag, body))``.  :func:`open_sealed`
  is told the source the runtime knows, refuses a frame claiming anyone
  else (the receiver's own id included) and checks the tag under that
  source's pairwise key: a corrupted party speaks only as itself.
* A party's messages to itself cross no link: :func:`open_local` unwraps
  them without a MAC, and only the carrier's local loop calls it.
* The TCP mesh has no envelope of its own: the window datagram is MACed
  under the key of the connection's authenticated peer, and that peer is
  the sender (:mod:`repro.net.tcp`, :mod:`repro.net.sliding_window`).

Reliability and FIFO order are the transports': the simulator enforces
per-pair FIFO; TCP runs sliding-window sessions with authenticated
acknowledgments over supervised connections (``docs/RESILIENCE.md``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError, InvalidSignature, TransportError
from repro.crypto.dealer import PartyCrypto


def seal(crypto: PartyCrypto, dst: int, body: bytes) -> bytes:
    """Tag ``body`` for the link to ``dst`` and frame it for the wire."""
    sender = crypto.index0
    if dst == sender:
        tag = b""  # the local loop needs no authentication
    else:
        tag = crypto.link_auth(dst).tag(body)
    return encode((sender, tag, body))


def _fields(wire: bytes) -> Tuple[int, bytes, bytes]:
    try:
        sender, tag, body = decode(wire)
    except (EncodingError, ValueError, TypeError) as exc:
        raise TransportError("malformed wire frame") from exc
    if not isinstance(sender, int) or not isinstance(tag, bytes) or not isinstance(body, bytes):
        raise TransportError("malformed wire frame fields")
    return sender, tag, body


def open_sealed(crypto: PartyCrypto, src: Optional[int], wire: bytes) -> bytes:
    """Verify a frame that arrived on the link from ``src``; returns the body.

    ``src`` comes from the carrier (``None``: on no link, so no claim
    holds).  Raises :class:`InvalidSignature` if the frame names another
    sender or its MAC fails under the link's key, and
    :class:`TransportError` on malformed framing.
    """
    sender, tag, body = _fields(wire)
    # no party shares a key with itself: "from the receiver" opens nowhere
    if sender != src or src not in crypto.mac_keys:
        raise InvalidSignature(f"frame claims sender {sender} on the link from {src}")
    crypto.link_auth(src).check(body, tag)
    return body


def open_local(crypto: PartyCrypto, wire: bytes) -> bytes:
    """Unwrap a frame this party sent itself (the carrier's local loop
    only): nothing to verify, the bytes never left the party."""
    sender, _tag, body = _fields(wire)
    if sender != crypto.index0:
        raise TransportError(f"local frame names sender {sender}")
    return body
