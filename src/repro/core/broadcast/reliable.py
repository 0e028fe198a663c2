"""Reliable broadcast — the protocol of Bracha and Toueg (paper Sec. 2.2).

Guarantees *agreement*: all honest parties deliver the same message or
nothing at all.  The protocol uses no public-key cryptography, only the
(cheap) authenticated point-to-point links:

1. the sender sends the payload to all parties;
2. all parties "echo" the sender's message to each other;
3. upon ``ceil((n+t+1)/2)`` echoes or ``t+1`` "ready" messages for the
   same payload, a party sends a "ready" message to all;
4. upon ``2t+1`` "ready" messages a party accepts the payload and
   delivers it.

Message complexity is quadratic in ``n``; the paper's measurements show
this is nevertheless *faster* than consistent broadcast on all setups
because it performs no digital-signature operations (Table 1).
"""

from __future__ import annotations

from typing import Any, Dict, Set

from repro.core.broadcast.base import Broadcast
from repro.crypto.hashing import sha256

MSG_SEND = "send"
MSG_ECHO = "echo"
MSG_READY = "ready"


class ReliableBroadcast(Broadcast):
    """One instance of Bracha's reliable broadcast."""

    MESSAGES = {MSG_SEND: bytes, MSG_ECHO: bytes, MSG_READY: bytes}

    def __init__(self, ctx, basepid: str, sender: int):
        super().__init__(ctx, basepid, sender)
        self._echoes: Dict[bytes, Set[int]] = {}
        self._readies: Dict[bytes, Set[int]] = {}
        self._payloads: Dict[bytes, bytes] = {}
        self._echo_sent = False
        self._ready_sent = False

    @property
    def _echo_quorum(self) -> int:
        return (self.ctx.n + self.ctx.t + 2) // 2  # ceil((n + t + 1) / 2)

    # -- sending -------------------------------------------------------------

    def _start(self, message: bytes) -> None:
        self.send_all(MSG_SEND, message)

    # -- receiving -------------------------------------------------------------

    def on_message(self, sender: int, mtype: str, payload: Any) -> None:
        if mtype == MSG_SEND:
            self._on_send(sender, payload)
        elif mtype == MSG_ECHO:
            self._on_echo(sender, payload)
        else:
            self._on_ready(sender, payload)

    def _on_send(self, sender: int, payload: bytes) -> None:
        if sender != self.sender or self._echo_sent:
            return
        self._echo_sent = True
        self.send_all(MSG_ECHO, payload)

    def _on_echo(self, sender: int, payload: bytes) -> None:
        digest = sha256(payload)
        self._payloads.setdefault(digest, payload)
        voters = self._echoes.setdefault(digest, set())
        if sender in voters:
            return
        voters.add(sender)
        if len(voters) >= self._echo_quorum:
            self._maybe_ready(digest)

    def _on_ready(self, sender: int, payload: bytes) -> None:
        digest = sha256(payload)
        self._payloads.setdefault(digest, payload)
        voters = self._readies.setdefault(digest, set())
        if sender in voters:
            return
        voters.add(sender)
        if len(voters) >= self.ctx.t + 1:
            self._maybe_ready(digest)
        if len(voters) >= 2 * self.ctx.t + 1:
            self._deliver(self._payloads[digest])

    def _maybe_ready(self, digest: bytes) -> None:
        if self._ready_sent:
            return
        self._ready_sent = True
        self.send_all(MSG_READY, self._payloads[digest])
