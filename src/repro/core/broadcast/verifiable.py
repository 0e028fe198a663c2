"""Verifiable consistent broadcast (paper Secs. 3.2 and 2.4).

Consistent broadcast is *verifiable*: a party that has delivered the
payload can produce a single **closing message** — the payload together
with the threshold signature binding it to the instance — that allows any
other party to deliver and terminate the broadcast without waiting for
further network messages.  This is a virtual protocol on top of
:class:`ConsistentBroadcast` requiring no additional communication.

The closing message is how the multi-valued agreement protocol proves that
a candidate actually made a proposal (Sec. 2.4).
"""

from __future__ import annotations

from typing import Optional

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError
from repro.core.broadcast.consistent import CLOSING, ConsistentBroadcast, _bound_message
from repro.core.schema import conforms
from repro.crypto.dealer import PartyCrypto


class VerifiableConsistentBroadcast(ConsistentBroadcast):
    """Consistent broadcast with closing messages."""

    # -- closing-message production -------------------------------------------

    def get_closing(self) -> bytes:
        """The closing message of an already-delivered instance."""
        if self.payload is None or self.signature is None:
            raise EncodingError("broadcast has not delivered yet")
        return encode((self.payload, self.signature))

    # -- closing-message consumption -----------------------------------------------

    def deliver_closing(self, closing: bytes) -> bool:
        """Deliver from a closing message; returns ``True`` if accepted."""
        if self.halted:
            return True
        parsed = parse_closing(self.ctx.crypto, self.pid, closing)
        if parsed is None:
            return False
        payload, signature = parsed
        self.signature = signature
        self._deliver(payload)
        return True

    # -- static helpers (paper API) ---------------------------------------------

    @staticmethod
    def get_payload_from_closing(closing: bytes) -> bytes:
        """Extract the payload of a closing message (no verification)."""
        value = decode(closing)
        if not conforms(value, CLOSING):
            raise EncodingError("malformed closing message")
        return value[0]

    @staticmethod
    def is_valid_closing(crypto: PartyCrypto, pid: str, closing: bytes) -> bool:
        """Check whether ``closing`` closes the instance ``pid``."""
        return parse_closing(crypto, pid, closing) is not None


def parse_closing(
    crypto: PartyCrypto, pid: str, closing: bytes
) -> Optional["tuple[bytes, bytes]"]:
    """Verify and destructure a closing message, or return ``None``."""
    try:
        value = decode(closing)
    except EncodingError:
        return None
    if not conforms(value, CLOSING):
        return None
    payload, signature = value
    if not crypto.verifier.sig_ok(
        crypto.cbc_scheme, _bound_message(pid, payload), signature
    ):
        return None
    return payload, signature
