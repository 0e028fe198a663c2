"""Shoup-Gennaro TDH2 threshold cryptosystem [18].

SINTRA's secure causal atomic broadcast (Sec. 2.6) encrypts payloads under
a *group* public key; the matching private key is shared among the servers
so that any ``k`` of them can jointly decrypt a ciphertext once — and only
once — its position in the total order is fixed.  The scheme must be secure
against adaptive chosen-ciphertext attacks so that a corrupted party cannot
transform an observed ciphertext into a related one; TDH2 provides this in
the random-oracle model via a NIZK proof of well-formedness attached to
every ciphertext.

Hybrid symmetric layer: the paper uses the MARS block cipher with 128-bit
keys; here the DH secret is hashed to a key for a SHA-256 counter-mode
keystream (see DESIGN.md substitutions).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.encoding import decode, encode
from repro.common.errors import (
    CryptoError,
    EncodingError,
    InvalidCiphertext,
    InvalidShare,
)
from repro.crypto import arith, hashing, shamir
from repro.crypto.params import DLGroup

_CTXT_DOMAIN = "tdh2.ciphertext"
_SHARE_DOMAIN = "tdh2.share-proof"
_KEY_DOMAIN = "tdh2.symmetric-key"


@dataclass(frozen=True)
class Ciphertext:
    """A TDH2 ciphertext.

    ``c`` is the symmetrically encrypted payload; ``label`` binds the
    ciphertext to application context (here: the channel pid);
    ``(u, ubar, e, f)`` are the DH component and the NIZK proof of
    well-formedness.
    """

    c: bytes
    label: bytes
    u: int
    ubar: int
    e: int
    f: int

    def to_bytes(self) -> bytes:
        return encode((self.c, self.label, self.u, self.ubar, self.e, self.f))

    @staticmethod
    def from_bytes(data: bytes) -> "Ciphertext":
        try:
            c, label, u, ubar, e, f = decode(data)
        except (EncodingError, ValueError, TypeError) as exc:
            raise InvalidCiphertext("malformed ciphertext encoding") from exc
        if not (isinstance(c, bytes) and isinstance(label, bytes)):
            raise InvalidCiphertext("malformed ciphertext fields")
        if not all(isinstance(v, int) for v in (u, ubar, e, f)):
            raise InvalidCiphertext("malformed ciphertext fields")
        return Ciphertext(c=c, label=label, u=u, ubar=ubar, e=e, f=f)


@dataclass(frozen=True)
class TDH2PublicKey:
    """Public data: group, second generator, ``h = g^x`` and per-party VKs."""

    group: DLGroup
    gbar: int
    h: int
    verification_keys: Tuple[int, ...]  # h_i = g^{x_i}, index i-1


class TDH2Scheme:
    """Public (encrypt / verify / combine) side of TDH2."""

    def __init__(self, n: int, k: int, t: int, public: TDH2PublicKey, domain: str):
        if not t < k <= n:
            raise CryptoError(f"invalid thresholds (n={n}, k={k}, t={t})")
        self.n = n
        self.k = k
        self.t = t
        self.public = public
        self.domain = domain

    # -- dealing --------------------------------------------------------------

    @staticmethod
    def deal(
        n: int,
        k: int,
        t: int,
        group: DLGroup,
        rng: random.Random,
        domain: str,
    ) -> Tuple["TDH2Scheme", List[int]]:
        """Dealer-side generation: returns scheme and secret shares (1-based)."""
        secret = rng.randrange(group.q)
        shares = shamir.share_secret(secret, n, k, group.q, rng)
        vks = tuple(arith.powmod(group.g, shares.shares[i], group.p)
                    for i in range(1, n + 1))
        h = arith.powmod(group.g, secret, group.p)
        gbar = hashing.hash_to_group(
            "tdh2.gbar", encode((domain, h)), group.p, group.q
        )
        public = TDH2PublicKey(group=group, gbar=gbar, h=h, verification_keys=vks)
        return (
            TDH2Scheme(n, k, t, public, domain),
            [shares.shares[i] for i in range(1, n + 1)],
        )

    # -- encryption -----------------------------------------------------------

    def encrypt(
        self, message: bytes, label: bytes, rng: random.Random
    ) -> Ciphertext:
        """Encrypt ``message`` under the group key with context ``label``."""
        grp = self.public.group
        r = rng.randrange(1, grp.q)
        s = rng.randrange(1, grp.q)
        u = arith.mexp(grp.g, r, grp.p)
        w = arith.mexp(grp.g, s, grp.p)
        ubar = arith.mexp(self.public.gbar, r, grp.p)
        wbar = arith.mexp(self.public.gbar, s, grp.p)
        hr = arith.mexp(self.public.h, r, grp.p)
        key = hashing.oracle_bytes(_KEY_DOMAIN, encode((self.domain, hr)), 32)
        c = hashing.xor_bytes(message, hashing.keystream(key, len(message)))
        e = hashing.challenge(
            _CTXT_DOMAIN, (self.domain, c, label, u, w, ubar, wbar), grp.q
        )
        f = (s + r * e) % grp.q
        return Ciphertext(c=c, label=label, u=u, ubar=ubar, e=e, f=f)

    # -- validity -------------------------------------------------------------

    def check_ciphertext(self, ctxt: Ciphertext) -> bool:
        """Verify the NIZK of well-formedness (the CCA2 armour)."""
        grp = self.public.group
        if not (0 < ctxt.u < grp.p and 0 < ctxt.ubar < grp.p):
            return False
        if not (0 <= ctxt.e < grp.q and 0 <= ctxt.f < grp.q):
            return False
        w = (
            arith.mexp(grp.g, ctxt.f, grp.p)
            * arith.mexp(arith.invmod(ctxt.u, grp.p), ctxt.e, grp.p)
        ) % grp.p
        wbar = (
            arith.mexp(self.public.gbar, ctxt.f, grp.p)
            * arith.mexp(arith.invmod(ctxt.ubar, grp.p), ctxt.e, grp.p)
        ) % grp.p
        expected = hashing.challenge(
            _CTXT_DOMAIN,
            (self.domain, ctxt.c, ctxt.label, ctxt.u, w, ctxt.ubar, wbar),
            grp.q,
        )
        return ctxt.e == expected

    # -- decryption shares ------------------------------------------------------

    def holder(self, index: int, secret: object) -> "TDH2ShareHolder":
        return TDH2ShareHolder(self, index, int(secret))  # type: ignore[arg-type]

    def _decode_share(self, share: bytes) -> "Optional[tuple]":
        """Decode a share into ``(index, u_i, c, z)``; ``None`` if malformed."""
        try:
            decoded = decode(share)
        except EncodingError:
            return None
        if not isinstance(decoded, tuple) or len(decoded) != 4:
            return None
        if not all(isinstance(v, int) for v in decoded):
            return None
        index, u_i, c, z = decoded
        grp = self.public.group
        if not 1 <= index <= self.n:
            return None
        if not 0 < u_i < grp.p or not 0 <= c < grp.q or not 0 <= z < grp.q:
            return None
        return index, u_i, c, z

    def share_index(self, share: bytes) -> "Optional[int]":
        """The 1-based holder index a share names; ``None`` if malformed."""
        fields = self._decode_share(share)
        return None if fields is None else fields[0]

    def verify_share(self, ctxt: Ciphertext, share: bytes) -> bool:
        """Verify one decryption share against a (valid) ciphertext."""
        fields = self._decode_share(share)
        if fields is None:
            return False
        index, u_i, c, z = fields
        grp = self.public.group
        h_i = self.public.verification_keys[index - 1]
        # Proof of log_g(h_i) == log_u(u_i): recompute the commitments.
        a = (
            arith.mexp(grp.g, z, grp.p)
            * arith.mexp(arith.invmod(h_i, grp.p), c, grp.p)
        ) % grp.p
        b = (
            arith.mexp(ctxt.u, z, grp.p)
            * arith.mexp(arith.invmod(u_i, grp.p), c, grp.p)
        ) % grp.p
        expected = hashing.challenge(
            _SHARE_DOMAIN,
            (self.domain, index, ctxt.u, ctxt.c, h_i, u_i, a, b),
            grp.q,
        )
        return c == expected

    # -- combination -------------------------------------------------------------

    def combine(self, ctxt: Ciphertext, shares: Dict[int, bytes]) -> bytes:
        """Combine ``k`` verified decryption shares into the plaintext."""
        if not self.check_ciphertext(ctxt):
            raise InvalidCiphertext("refusing to decrypt an invalid ciphertext")
        if len(shares) < self.k:
            raise CryptoError(f"need {self.k} decryption shares, got {len(shares)}")
        grp = self.public.group
        u_parts: Dict[int, int] = {}
        for index in sorted(shares)[: self.k]:
            decoded = decode(shares[index])
            if decoded[0] != index:
                raise InvalidShare("decryption share indexed under wrong key")
            u_parts[index] = decoded[1]
        hr = shamir.reconstruct_in_exponent(u_parts, self.k, grp.p, grp.q)
        key = hashing.oracle_bytes(_KEY_DOMAIN, encode((self.domain, hr)), 32)
        return hashing.xor_bytes(ctxt.c, hashing.keystream(key, len(ctxt.c)))


class TDH2ShareHolder:
    """Per-party secret side: emits decryption shares."""

    def __init__(self, scheme: TDH2Scheme, index: int, share: int):
        if not 1 <= index <= scheme.n:
            raise CryptoError(f"share holder index {index} out of range")
        self.scheme = scheme
        self.index = index
        self._share = share

    def decryption_share(self, ctxt: Ciphertext) -> bytes:
        """Produce a decryption share ``u^{x_i}`` with its equality proof.

        Raises :class:`InvalidCiphertext` if the ciphertext NIZK does not
        verify — honest parties never assist in decrypting malformed
        ciphertexts (this is what defeats chosen-ciphertext attacks).
        """
        scheme = self.scheme
        if not scheme.check_ciphertext(ctxt):
            raise InvalidCiphertext("ciphertext failed its validity proof")
        grp = scheme.public.group
        u_i = arith.mexp(ctxt.u, self._share, grp.p)
        r = hashing.hash_to_int(
            "tdh2.nonce",
            encode((self.index, self._share, ctxt.u, ctxt.c)),
            grp.q,
        )
        a = arith.mexp(grp.g, r, grp.p)
        b = arith.mexp(ctxt.u, r, grp.p)
        h_i = scheme.public.verification_keys[self.index - 1]
        c = hashing.challenge(
            _SHARE_DOMAIN,
            (scheme.domain, self.index, ctxt.u, ctxt.c, h_i, u_i, a, b),
            grp.q,
        )
        z = (r + self._share * c) % grp.q
        return encode((self.index, u_i, c, z))
