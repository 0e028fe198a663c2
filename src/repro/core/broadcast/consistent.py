"""Consistent (echo) broadcast (paper Sec. 2.2).

Reiter's echo broadcast with a threshold-signature quorum certificate:

1. the sender sends the payload to all parties;
2. every party binds the payload to this broadcast instance by producing
   a threshold-signature share on ``(pid, payload)`` and echoes the share
   back to the sender (at most once — this is what makes two conflicting
   certificates impossible);
3. from a quorum of ``ceil((n+t+1)/2)`` valid shares the sender assembles
   the threshold signature and sends it to all parties;
4. a party delivers the payload when it receives the valid signature.

Only *consistency* is guaranteed: parties that deliver, deliver the same
payload, but some honest parties may deliver nothing.  Communication is
linear in ``n`` (vs. quadratic for reliable broadcast) at the price of
threshold-signature computation — the trade-off measured in Table 1.

The threshold signature may be a multi-signature, in which case this is
exactly the protocol proposed by Reiter (paper Sec. 2.1/2.2).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.common.encoding import encode
from repro.common.errors import InvalidShare
from repro.core.broadcast.base import Broadcast
from repro.crypto.threshold_sig import combine_optimistically

MSG_SEND = "send"
MSG_ECHO = "echo"
MSG_FINAL = "final"


def _bound_message(pid: str, payload: bytes) -> bytes:
    """The string the threshold signature binds: payload + instance."""
    return encode(("cbc", pid, payload))


CLOSING = (bytes, bytes)  # (payload, signature): final and closing message


class ConsistentBroadcast(Broadcast):
    """One instance of consistent broadcast."""

    MESSAGES = {MSG_SEND: bytes, MSG_ECHO: bytes, MSG_FINAL: CLOSING}

    def __init__(self, ctx, basepid: str, sender: int):
        super().__init__(ctx, basepid, sender)
        self._echoed = False
        self._shares: Dict[int, bytes] = {}
        self._sent_final = False
        self._payload: Optional[bytes] = None
        self.signature: Optional[bytes] = None  # set on delivery

    @property
    def _quorum(self) -> int:
        return self.ctx.crypto.cbc_scheme.k

    # -- sender side -------------------------------------------------------------

    def _start(self, message: bytes) -> None:
        self._payload = message
        self.send_all(MSG_SEND, message)

    # -- message handling -----------------------------------------------------------

    def on_message(self, sender: int, mtype: str, payload: Any) -> None:
        if mtype == MSG_SEND:
            self._on_send(sender, payload)
        elif mtype == MSG_ECHO:
            self._on_echo(sender, payload)
        else:
            self._on_final(sender, payload)

    def _on_send(self, sender: int, payload: bytes) -> None:
        if sender != self.sender or self._echoed:
            return
        self._echoed = True
        if self._payload is None:
            self._payload = payload
        share = self.ctx.crypto.cbc_signer.sign_share(
            _bound_message(self.pid, payload)
        )
        self.unicast(self.sender, MSG_ECHO, share)

    def _on_echo(self, sender: int, share: bytes) -> None:
        # Only the sender collects echo shares.
        if self.ctx.node_id != self.sender or self._sent_final or self._payload is None:
            return
        scheme = self.ctx.crypto.cbc_scheme
        bound = _bound_message(self.pid, self._payload)
        try:
            index = scheme.share_index(share)
        except InvalidShare:
            return
        if index != sender + 1:
            return  # a share must come from its owner
        # Optimistic share handling: shares are accepted unverified and the
        # combined signature is checked once; only if a corrupted party
        # slipped in a bad share do we pay for per-share verification.
        self._shares[index] = share
        if len(self._shares) >= self._quorum:
            signature = combine_optimistically(
                scheme, bound, self._shares, verifier=self.ctx.crypto.verifier
            )
            if signature is None:
                return  # bad shares were evicted; wait for more echoes
            self._sent_final = True
            self.send_all(MSG_FINAL, (self._payload, signature))

    def _on_final(self, sender: int, payload: Tuple[bytes, bytes]) -> None:
        message, signature = payload
        scheme = self.ctx.crypto.cbc_scheme
        if not self.ctx.crypto.verifier.sig_ok(
            scheme, _bound_message(self.pid, message), signature
        ):
            return
        self.signature = signature
        self._deliver(message)
