"""How a candidate vector reaches agreement, and what proves it.

The atomic channel (:mod:`repro.core.channel.atomic`) agrees, round by
round, on ``n - f + 1`` candidate entries ``(signer, body, proof)``.  What
a ``body`` and its ``proof`` *are* is decided here and nowhere else; the
channel has exactly one of the two objects below, chosen once from its
``offload`` flag, and talks to it through these calls: ``announce`` the
own vector; ``check`` one entry, the single validity of an entry — used
when a candidate arrives *and* by the agreement's external-validity
predicate, so the two cannot drift apart; look the ``vector`` behind an
entry up, ``fetch`` one that is missing, ``forget`` behind a delivered
round, and ``on_message`` for every message type that is not the
candidate announcement itself.

``check`` is two halves, also callable apart: ``parse`` is codec only
(shape-check and normalize the body, build the statement its proof must
cover) and ``verify`` is the one crypto call on that statement.  The
agreement evaluates its predicate many times per round on a handful of
distinct proposals, so the channel keeps each round's ``parse`` results
and calls ``verify`` again on every evaluation: a signature is never
taken on trust from an earlier verdict.

:class:`Inline` is the paper's form (Sec. 2.5): the body is the vector,
the proof its signer's RSA signature over ``(channel, round, digest)``.

:class:`Offloaded` is payload offloading (``docs/THROUGHPUT.md``):
agreement runs on 32-byte vector digests instead of the vectors
themselves, keeping MVBA proposals small when ``max_batch`` is large.
Bodies are disseminated point-to-point (``MSG_BATCH``) and each receiver
returns a signature share on the statement ``(channel, round, signer,
digest)``; ``n - t`` shares combine into an *availability certificate*
proving that at least ``n - 2t >= t + 1`` honest parties hold the body.
The certificate — a pure, globally checkable predicate — is the proof,
and a party missing a decided body fetches it (``MSG_FETCH``/``MSG_BODY``)
from the certified holders, so delivery cannot stall on a withheld body.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from repro.common.encoding import encode
from repro.crypto.threshold_sig import MultiSignatureScheme

if TYPE_CHECKING:
    from repro.core.channel.atomic import AtomicChannel, Record

MSG_QUEUE = "queue"   # candidate announcement: (r, vector, sig) / (r, digest, cert)
MSG_BATCH = "body"    # offload: body dissemination (r, vector)
MSG_ACK = "avail"     # offload: availability share (r, digest, share), unicast
MSG_FETCH = "fetch"   # offload: request a missing decided body (r, signer, digest)
MSG_BODY = "bodyr"    # offload: fetched-body reply (r, signer, vector), unicast

SIGN_DOMAIN = "sintra.atomic"
AVAIL_DOMAIN = "sintra.atomic.avail"

#: delivered rounds whose offloaded bodies stay cached to serve fetches
#: from lagging parties
BODY_KEEP_ROUNDS = 32


def vector_digest(vector: List[Record]) -> bytes:
    """Collision-resistant digest of a candidate vector."""
    return hashlib.sha256(encode(list(vector))).digest()


def sign_string(pid: str, r: int, digest: bytes) -> bytes:
    """The string a party signs to put a vector forward in round ``r``."""
    return encode(("atomic-batch", pid, r, digest))


def avail_string(pid: str, r: int, signer: int, digest: bytes) -> bytes:
    """The availability statement receivers of a body sign a share on."""
    return encode(("atomic-avail", pid, r, signer, digest))


class Inline:
    """Body = the vector, proof = its signer's signature; nothing to hold."""

    serves_closed = False  # nothing left to answer for

    def __init__(self, channel: AtomicChannel):
        self._ch = channel

    def announce(self, r: int, vector: List[Record]) -> None:
        ch = self._ch
        sig = ch.ctx.crypto.sign(SIGN_DOMAIN, sign_string(ch.pid, r, vector_digest(vector)))
        ch.send_all(MSG_QUEUE, (r, vector, sig))

    def check(self, r: int, signer: int, body: Any, proof: Any) -> Optional[List[Record]]:
        """The normalized vector if the entry is valid for round ``r``,
        else ``None``.  Pure: reads no channel state."""
        parsed = self.parse(r, signer, body, proof)
        if parsed is None or not self.verify(signer, parsed[1], proof):
            return None
        return parsed[0]

    def parse(
        self, r: int, signer: int, body: Any, proof: Any
    ) -> Optional[Tuple[List[Record], bytes]]:
        """The normalized vector and the statement its signer must have
        signed, or ``None`` if the entry is malformed.  Codec only."""
        ch = self._ch
        vector = ch._check_vector(body)
        if vector is None or not isinstance(proof, int):
            return None
        return vector, sign_string(ch.pid, r, vector_digest(vector))

    def verify(self, signer: int, statement: bytes, proof: Any) -> bool:
        """Whether ``proof`` is ``signer``'s signature on ``statement``."""
        return self._ch.ctx.crypto.verify_party(signer, SIGN_DOMAIN, statement, proof)

    def vector(self, r: int, signer: int, body: List[Record]) -> List[Record]:
        return body

    def fetch(self, r: int, signer: int, body: Any) -> None:
        pass  # a checked entry carries its vector

    def forget(self, r: int) -> None:
        pass

    def on_message(self, sender: int, mtype: str, payload: Any) -> None:
        pass


@dataclass
class _Held:
    """What this party holds of one round's offloaded bodies."""

    #: signer -> {digest: vector}, at most two per (equivocating) signer
    bodies: Dict[int, Dict[bytes, List[Record]]] = field(default_factory=dict)
    #: signers whose first valid body was acknowledged
    acked: Set[int] = field(default_factory=set)
    #: digest of this party's own disseminated body
    own_digest: Optional[bytes] = None
    #: 1-based index -> share on ``own_digest``; ``n - t`` certify it
    shares: Dict[int, bytes] = field(default_factory=dict)
    #: (signer, digest) this party already asked everyone for
    fetched: Set[Tuple[int, bytes]] = field(default_factory=set)
    #: (requester, signer, digest) already answered
    served: Set[Tuple[int, int, bytes]] = field(default_factory=set)


class Offloaded:
    """Body = a vector digest, proof = an ``n - t`` availability
    certificate; the vectors travel apart from agreement and are held
    here, per round, ``BODY_KEEP_ROUNDS`` behind the delivery frontier."""

    #: a party left with exactly ``n - t`` correspondents may still miss a
    #: decided body when those, its holders, close: a closed channel stays
    #: registered and answers ``MSG_FETCH`` (and nothing else)
    serves_closed = True

    def __init__(self, channel: AtomicChannel):
        self._ch = channel
        crypto = channel.ctx.crypto
        self._scheme = MultiSignatureScheme(
            crypto.n, crypto.n - crypto.t, crypto.t,
            crypto.party_public_keys, AVAIL_DOMAIN,
        )
        self._signer = self._scheme.signer(crypto.index0 + 1, crypto.rsa)
        self._rounds: Dict[int, _Held] = {}

    def _round(self, r: int) -> _Held:
        held = self._rounds.get(r)
        if held is None:
            held = self._rounds[r] = _Held()
        return held

    def announce(self, r: int, vector: List[Record]) -> None:
        # Disseminate the body; the candidate announcement follows once
        # the availability certificate assembles (see _on_ack).
        self._round(r).own_digest = vector_digest(vector)
        self._ch.send_all(MSG_BATCH, (r, vector))

    def check(self, r: int, signer: int, body: Any, proof: Any) -> Optional[bytes]:
        """The digest if ``proof`` certifies it for ``(r, signer)``, else
        ``None``.  Pure: reads no channel state."""
        parsed = self.parse(r, signer, body, proof)
        if parsed is None or not self.verify(signer, parsed[1], proof):
            return None
        return parsed[0]

    def parse(
        self, r: int, signer: int, body: Any, proof: Any
    ) -> Optional[Tuple[bytes, bytes]]:
        """The digest and the availability statement its certificate must
        cover, or ``None`` if the entry is malformed.  Codec only."""
        if not (isinstance(body, bytes) and isinstance(proof, bytes)):
            return None
        return body, avail_string(self._ch.pid, r, signer, body)

    def verify(self, signer: int, statement: bytes, proof: Any) -> bool:
        """Whether ``proof`` is an ``n - t`` certificate on ``statement``."""
        return self._ch.ctx.crypto.accel.sig_ok(self._scheme, statement, proof)

    def vector(self, r: int, signer: int, body: bytes) -> Optional[List[Record]]:
        held = self._rounds.get(r)
        by_digest = held.bodies.get(signer) if held is not None else None
        return by_digest.get(body) if by_digest is not None else None

    def fetch(self, r: int, signer: int, body: bytes) -> None:
        """Ask everyone, once: the certificate guarantees >= t+1 live
        honest holders."""
        held = self._round(r)
        if (signer, body) in held.fetched:
            return
        held.fetched.add((signer, body))
        ch = self._ch
        if ch.obs.enabled:
            ch.obs.count("atomic.offload.fetches")
        ch.send_all(MSG_FETCH, (r, signer, body))

    def forget(self, r: int) -> None:
        """Round ``r`` delivered, so exactly one round leaves the horizon."""
        self._rounds.pop(r - BODY_KEEP_ROUNDS, None)

    def on_message(self, sender: int, mtype: str, payload: Any) -> None:
        if mtype == MSG_FETCH:
            self._on_fetch(sender, payload)
        elif self._ch.is_closed():
            return
        elif mtype == MSG_BATCH:
            self._on_body(sender, payload)
        elif mtype == MSG_ACK:
            self._on_ack(sender, payload)
        elif mtype == MSG_BODY:
            self._on_body_reply(sender, payload)

    def _on_body(self, sender: int, payload: Any) -> None:
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return
        r, body = payload
        ch = self._ch
        if not isinstance(r, int) or r < ch.round:
            return  # rounds below the frontier have fully delivered
        vector = ch._check_vector(body)
        if vector is None:
            return
        digest = vector_digest(vector)
        held = self._store(r, sender, digest, vector)
        if held is None:
            return
        if sender not in held.acked:
            # Ack only the first valid body per (round, signer): an
            # equivocating signer cannot farm certificates, and every
            # certificate still proves >= n - 2t honest holders.
            held.acked.add(sender)
            share = self._signer.sign_share(avail_string(ch.pid, r, sender, digest))
            ch.unicast(sender, MSG_ACK, (r, digest, share))
            if ch.obs.enabled:
                ch.obs.count("atomic.offload.acks")
        ch._advance()

    def _store(self, r: int, signer: int, digest: bytes, vector: List[Record]) -> Optional[_Held]:
        """``None`` if the body is held already or the signer's two are."""
        held = self._round(r)
        by_digest = held.bodies.get(signer)
        if by_digest is None:
            by_digest = held.bodies[signer] = {}
        if digest in by_digest or len(by_digest) >= 2:
            return None
        by_digest[digest] = vector
        self._ch._absorb(vector)
        return held

    def _on_ack(self, sender: int, payload: Any) -> None:
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return
        r, digest, share = payload
        if not (
            isinstance(r, int)
            and isinstance(digest, bytes)
            and isinstance(share, bytes)
        ):
            return
        ch = self._ch
        held = self._rounds.get(r)
        if r < ch.round or held is None or held.own_digest != digest:
            return
        if len(held.shares) >= self._scheme.k:
            return  # the certificate is out
        statement = avail_string(ch.pid, r, ch.ctx.node_id, digest)
        if not ch.ctx.crypto.accel.sig_share_ok(self._scheme, statement, share):
            return
        if sender + 1 in held.shares:
            return
        held.shares[sender + 1] = share
        if len(held.shares) >= self._scheme.k:
            cert = self._scheme.combine(statement, held.shares)
            if ch.obs.enabled:
                ch.obs.count("atomic.offload.certs")
            ch.send_all(MSG_QUEUE, (r, digest, cert))

    def _on_fetch(self, sender: int, payload: Any) -> None:
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return
        r, signer, digest = payload
        if not (
            isinstance(r, int)
            and isinstance(signer, int)
            and isinstance(digest, bytes)
        ):
            return
        vector = self.vector(r, signer, digest)
        if vector is None:
            return
        served = self._rounds[r].served
        if (sender, signer, digest) in served:
            return  # at most one reply per requester per body
        served.add((sender, signer, digest))
        ch = self._ch
        if ch.obs.enabled:
            ch.obs.count("atomic.offload.served")
        ch.unicast(sender, MSG_BODY, (r, signer, vector))

    def _on_body_reply(self, sender: int, payload: Any) -> None:
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return
        r, signer, body = payload
        ch = self._ch
        if not (isinstance(r, int) and isinstance(signer, int)) or r < ch.round:
            return
        vector = ch._check_vector(body)
        if vector is None:
            return
        # The digest authenticates the body regardless of who served it.
        self._store(r, signer, vector_digest(vector), vector)
        ch._advance()
