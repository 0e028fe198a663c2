"""Secure causal atomic broadcast channel (paper Secs. 2.6 and 3.4).

Atomic broadcast plus *confidentiality until ordering*: payloads are
encrypted under the channel's group public key (the Shoup-Gennaro TDH2
threshold cryptosystem), so their content stays hidden until their
position in the delivery sequence is fixed — which yields a causal order
even against Byzantine parties (Reiter-Birman).  The cryptosystem's CCA2
security prevents a corrupted party from transforming an observed
ciphertext into anything related to the payload.

Operation: ``send`` encrypts and broadcasts the ciphertext on the
underlying atomic channel; whenever the channel delivers a ciphertext,
every party releases a decryption share in one additional exchange, and
the cleartext is delivered once ``t + 1`` valid shares combine.
Cleartexts are released strictly in ciphertext-delivery order.

An entity outside the group can have a message broadcast confidentially:
it encrypts under the channel public key (:meth:`SecureAtomicChannel.
encrypt`) and hands the ciphertext to sufficiently many group members, who
call :meth:`send_ciphertext` without ever seeing the cleartext.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional

from repro.common import rng as rng_mod
from repro.common.encoding import encode
from repro.common.errors import InvalidCiphertext, ProtocolError
from repro.core.channel.atomic import CLOSED, KIND_CIPHER, AtomicChannel
from repro.core.protocol import Context
from repro.core.schema import Range
from repro.crypto.threshold_enc import Ciphertext, TDH2Scheme

MSG_DEC_SHARE = "dec"


class SecureAtomicChannel(AtomicChannel):
    """One party's endpoint of the secure causal atomic broadcast channel."""

    kind = "secure"
    MESSAGES = {**AtomicChannel.MESSAGES, MSG_DEC_SHARE: (Range(0), bytes)}

    def __init__(self, ctx: Context, pid: str, **kwargs: Any):
        super().__init__(ctx, pid, **kwargs)
        #: listener ``on_ciphertext(data)``, called with each ordered but
        #: undecrypted payload at completion time; the channel keeps none
        self.on_ciphertext: Optional[Callable[[bytes], None]] = None
        self._dec_order = 0  # index assigned to the next delivered ciphertext
        self._pending_ctxt: Dict[int, Ciphertext] = {}
        self._dec_shares: Dict[int, Dict[int, bytes]] = {}
        #: index -> cleartext, ``None`` for an invalid ciphertext slot
        self._plain: Dict[int, Optional[bytes]] = {}
        self._next_release = 0
        self._sent_count = 0
        #: ciphertext-delivery time per index, for the decrypt-phase lag
        self._ctxt_times: Dict[int, float] = {}

    # -- encryption ------------------------------------------------------------------

    @staticmethod
    def encrypt(
        scheme: TDH2Scheme,
        pid: str,
        message: bytes,
        rng: Optional[random.Random] = None,
    ) -> bytes:
        """Encrypt ``message`` for the channel ``pid`` under the group key.

        Usable by entities outside the group that only know the channel's
        public key.  Returns the serialized ciphertext.  Without an
        explicit ``rng`` the encryption randomness comes from OS entropy
        (the right default for a real client); pass a seeded stream for
        reproducible runs.
        """
        rng = rng or rng_mod.fresh()
        return scheme.encrypt(message, encode(("sac", pid)), rng).to_bytes()

    def _submit(self, data: bytes) -> None:
        # Deterministic per-(party, sequence) encryption randomness keeps
        # simulation runs reproducible; a deployment would use os.urandom.
        rng = random.Random(
            encode(("sac-rng", self.pid, self.ctx.node_id, self._sent_count))
        )
        self._sent_count += 1
        if self.obs.enabled:
            self.obs.count("secure.encrypted")
        ctxt = self.encrypt(self.ctx.crypto.enc, self.pid, data, rng)
        self._enqueue_own(KIND_CIPHER, ctxt)

    def send_ciphertext(self, ciphertext: bytes) -> None:
        """Broadcast an externally produced ciphertext (paper Sec. 3.4)."""
        if not isinstance(ciphertext, (bytes, bytearray)):
            raise ProtocolError("ciphertext must be a byte string")
        data = bytes(ciphertext)
        Ciphertext.from_bytes(data)  # fail fast on malformed framing
        self.ctx.api(lambda: self._enqueue_own(KIND_CIPHER, data))

    # -- intercept atomic deliveries ------------------------------------------------------

    def _handle_delivered_payload(
        self, origin: int, seq: int, kind: int, data: bytes
    ) -> None:
        # Only a valid ciphertext for this channel delivers anything.  Every
        # record takes its release index in ordering order, so a record from
        # a misbehaving sender (a plain payload, say) cannot overtake a
        # ciphertext still waiting for decryption shares on some parties.
        index = self._dec_order
        self._dec_order += 1
        try:
            ctxt = Ciphertext.from_bytes(data) if kind == KIND_CIPHER else None
        except InvalidCiphertext:
            ctxt = None
        scheme = self.ctx.crypto.enc
        # The label must bind the ciphertext to *this* channel: a ciphertext
        # made for another context is invalid here even if its NIZK holds.
        if ctxt is not None and ctxt.label != encode(("sac", self.pid)):
            ctxt = None
        if ctxt is None or not scheme.check_ciphertext(ctxt):
            # Anything else is delivered as nothing; mark the slot so
            # in-order release does not stall on it.
            self._plain[index] = None
            self._release_in_order()
            return
        self._pending_ctxt[index] = ctxt
        if self.obs.enabled:
            # The ciphertext's position is now fixed; the decrypt phase
            # (share exchange until cleartext release) starts here.
            self._ctxt_times[index] = self.ctx.now()
            self.obs.count("secure.dec_shares_sent")
        if self.on_ciphertext is not None:
            self.ctx.effect(self.on_ciphertext, data)
        share = self.ctx.crypto.enc_holder.decryption_share(ctxt)
        self.send_all(MSG_DEC_SHARE, (index, share))
        self._consume_shares(index)

    # -- decryption-share exchange ----------------------------------------------------------

    def on_message(self, sender: int, mtype: str, payload: Any) -> None:
        if mtype == MSG_DEC_SHARE:
            index, share = payload
            if index < self._next_release:
                return  # already released: a late share can unlock nothing
            if self.ctx.crypto.enc.share_index(share) != sender + 1:
                return  # a share must come from its owner
            self._dec_shares.setdefault(index, {})[sender + 1] = share
            self._consume_shares(index)
            return
        super().on_message(sender, mtype, payload)

    def _consume_shares(self, index: int) -> None:
        ctxt = self._pending_ctxt.get(index)
        if ctxt is None or index in self._plain:
            return
        scheme = self.ctx.crypto.enc
        verifier = self.ctx.crypto.verifier
        shares = self._dec_shares.get(index, {})
        valid = {
            index: share
            for index, share in sorted(shares.items())
            if verifier.dec_share_ok(scheme, ctxt, share)
        }
        if len(valid) < scheme.k:
            return
        self._plain[index] = scheme.combine(ctxt, valid)
        if self.obs.enabled:
            self.obs.count("secure.combined")
            started = self._ctxt_times.pop(index, None)
            if started is not None:
                self.obs.observe("phase.secure.decrypt", self.ctx.now() - started)
        self._release_in_order()

    def _release_in_order(self) -> None:
        while self._next_release in self._plain:
            data = self._plain.pop(self._next_release)
            self._pending_ctxt.pop(self._next_release, None)
            self._dec_shares.pop(self._next_release, None)
            if data is not None:  # None marks an invalid ciphertext slot
                self._emit_output(-1, self._next_release, data)
            self._next_release += 1
        self._maybe_finish_late()

    # -- termination: drain pending decryptions first ---------------------------------------------

    def _finish(self) -> None:
        if self._next_release >= self._dec_order and not self._pending_ctxt:
            super()._finish()
        # else: stay alive handling "dec" messages; _maybe_finish_late
        # terminates once everything pending has been released.

    def _maybe_finish_late(self) -> None:
        if self._stopped == CLOSED and not self._pending_ctxt:
            super()._finish()
