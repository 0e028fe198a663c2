"""Threshold coin-tossing of Cachin, Kursawe and Shoup [4].

The cryptographic common coin underlying SINTRA's randomized agreement
protocols.  It is a distributed pseudo-random function based on the
Diffie-Hellman problem:

* The dealer shares a secret ``x_0`` with a degree-``k-1`` polynomial over
  Z_q (``(n, k, t)`` dual threshold; SINTRA uses ``k = t + 1``).
* The "name" ``C`` of a coin (an arbitrary byte string, here derived from
  the protocol id and round number) is hashed to a group element
  ``g~ = H'(C)``.
* Party ``i``'s share is ``sigma_i = g~^{x_i}`` together with a
  Chaum-Pedersen / Fiat-Shamir proof that ``log_g(g^{x_i}) ==
  log_{g~}(sigma_i)``, making shares non-interactively verifiable.
* Any ``k`` valid shares interpolate (in the exponent) to ``g~^{x_0}``,
  and the coin value is a hash of that group element.

No party or coalition of ``t`` corrupted parties can predict a coin before
``k - t`` honest parties have released shares — the property the binary
agreement protocol's liveness rests on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.encoding import decode, encode
from repro.common.errors import CryptoError, EncodingError, InvalidShare
from repro.crypto import arith, hashing, shamir
from repro.crypto.params import DLGroup

_PROOF_DOMAIN = "coin.share-proof"
_NAME_DOMAIN = "coin.name"
_VALUE_DOMAIN = "coin.value"


@dataclass(frozen=True)
class CoinPublicKey:
    """Public data of a dealt coin: group and verification keys."""

    group: DLGroup
    global_vk: int  # g^{x_0}
    verification_keys: Tuple[int, ...]  # g^{x_i}, index i-1


class ThresholdCoin:
    """Public side: verify shares, assemble coin values."""

    def __init__(self, n: int, k: int, t: int, public: CoinPublicKey, domain: str):
        if not t < k <= n:
            raise CryptoError(f"invalid thresholds (n={n}, k={k}, t={t})")
        self.n = n
        self.k = k
        self.t = t
        self.public = public
        self.domain = domain

    # -- dealing ------------------------------------------------------------

    @staticmethod
    def deal(
        n: int,
        k: int,
        t: int,
        group: DLGroup,
        rng: random.Random,
        domain: str,
    ) -> Tuple["ThresholdCoin", List[int]]:
        """Dealer-side generation: returns scheme and secret shares (1-based)."""
        secret = rng.randrange(group.q)
        shares = shamir.share_secret(secret, n, k, group.q, rng)
        vks = tuple(arith.powmod(group.g, shares.shares[i], group.p)
                    for i in range(1, n + 1))
        global_vk = arith.powmod(group.g, secret, group.p)
        public = CoinPublicKey(group=group, global_vk=global_vk, verification_keys=vks)
        return (
            ThresholdCoin(n, k, t, public, domain),
            [shares.shares[i] for i in range(1, n + 1)],
        )

    # -- helpers ------------------------------------------------------------

    def _name_to_group(self, name: bytes) -> int:
        g = self.public.group
        return hashing.hash_to_group(
            _NAME_DOMAIN, encode((self.domain, name)), g.p, g.q
        )

    def holder(self, index: int, secret: object) -> "CoinShareHolder":
        return CoinShareHolder(self, index, int(secret))  # type: ignore[arg-type]

    # -- share verification ---------------------------------------------------

    def _decode_share(self, share: bytes) -> Optional[tuple]:
        """Decode a share into ``(index, sigma, c, z)``; ``None`` if malformed."""
        try:
            decoded = decode(share)
        except EncodingError:
            return None
        if not isinstance(decoded, tuple) or len(decoded) != 4:
            return None
        if not all(isinstance(v, int) for v in decoded):
            return None
        index, sigma, c, z = decoded
        grp = self.public.group
        if not 1 <= index <= self.n:
            return None
        if not 0 < sigma < grp.p or not 0 <= c < grp.q or not 0 <= z < grp.q:
            return None
        return index, sigma, c, z

    def share_index(self, share: bytes) -> Optional[int]:
        """The 1-based holder index a share names; ``None`` if malformed."""
        fields = self._decode_share(share)
        return None if fields is None else fields[0]

    def verify_share(self, name: bytes, share: bytes) -> bool:
        """Check a coin share (with its dlog-equality proof) for coin ``name``."""
        fields = self._decode_share(share)
        if fields is None:
            return False
        index, sigma, c, z = fields
        grp = self.public.group
        g_tilde = self._name_to_group(name)
        vk = self.public.verification_keys[index - 1]
        # Recompute the commitments a = g^z * vk^{-c}, b = g~^z * sigma^{-c}.
        a = (
            arith.mexp(grp.g, z, grp.p)
            * arith.mexp(arith.invmod(vk, grp.p), c, grp.p)
        ) % grp.p
        b = (
            arith.mexp(g_tilde, z, grp.p)
            * arith.mexp(arith.invmod(sigma, grp.p), c, grp.p)
        ) % grp.p
        expected = hashing.challenge(
            _PROOF_DOMAIN,
            (self.domain, index, grp.g, g_tilde, vk, sigma, a, b),
            grp.q,
        )
        return c == expected

    # -- assembly -------------------------------------------------------------

    def assemble_element(self, name: bytes, shares: Dict[int, bytes]) -> int:
        """Interpolate ``k`` shares into the group element ``g~^{x_0}``."""
        if len(shares) < self.k:
            raise CryptoError(f"need {self.k} coin shares, got {len(shares)}")
        grp = self.public.group
        sigmas: Dict[int, int] = {}
        for index in sorted(shares)[: self.k]:
            decoded = decode(shares[index])
            if decoded[0] != index:
                raise InvalidShare("coin share indexed under wrong key")
            sigmas[index] = decoded[1]
        return shamir.reconstruct_in_exponent(sigmas, self.k, grp.p, grp.q)

    def assemble_bytes(
        self, name: bytes, shares: Dict[int, bytes], length: int
    ) -> bytes:
        """Assemble the coin and return ``length`` pseudo-random bytes."""
        element = self.assemble_element(name, shares)
        return hashing.oracle_bytes(
            _VALUE_DOMAIN, encode((self.domain, name, element)), length
        )

    def assemble_bit(self, name: bytes, shares: Dict[int, bytes]) -> int:
        """Assemble the coin and return a single unpredictable bit."""
        return self.assemble_bytes(name, shares, 1)[0] & 1


class CoinShareHolder:
    """Per-party secret side: releases coin shares."""

    def __init__(self, coin: ThresholdCoin, index: int, share: int):
        if not 1 <= index <= coin.n:
            raise CryptoError(f"coin holder index {index} out of range")
        self.coin = coin
        self.index = index
        self._share = share

    def release(self, name: bytes) -> bytes:
        """Release this party's share of the coin named ``name``.

        The share carries a Fiat-Shamir proof of discrete-log equality; the
        nonce is derived deterministically from the secret and the name so
        that runs are reproducible and nonces are never reused unsafely.
        """
        coin = self.coin
        grp = coin.public.group
        g_tilde = coin._name_to_group(name)
        sigma = arith.mexp(g_tilde, self._share, grp.p)
        r = hashing.hash_to_int(
            "coin.nonce", encode((self.index, self._share, name)), grp.q
        )
        a = arith.mexp(grp.g, r, grp.p)
        b = arith.mexp(g_tilde, r, grp.p)
        vk = coin.public.verification_keys[self.index - 1]
        c = hashing.challenge(
            _PROOF_DOMAIN,
            (coin.domain, self.index, grp.g, g_tilde, vk, sigma, a, b),
            grp.q,
        )
        z = (r + self._share * c) % grp.q
        return encode((self.index, sigma, c, z))
