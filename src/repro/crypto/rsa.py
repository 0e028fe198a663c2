"""Standard RSA full-domain-hash signatures.

Used by SINTRA for the per-party signing keys (atomic broadcast message
signing, Sec. 2.5) and as the building block of multi-signatures
(Sec. 2.1).  Signing uses the Chinese-remainder fast path, which the paper
notes benefits the multi-signature implementation [12].
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.common.errors import CryptoError, InvalidSignature
from repro.crypto import arith, hashing

DEFAULT_E = 65537


@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    def verify(self, domain: str, message: bytes, signature: int) -> bool:
        """Verify an FDH signature; returns ``True`` iff valid."""
        if not 0 < signature < self.n:
            return False
        x = hashing.fdh_to_zn(domain, message, self.n)
        return arith.mexp(signature, self.e, self.n) == x

    def check(self, domain: str, message: bytes, signature: int) -> None:
        """Verify and raise :class:`InvalidSignature` on failure."""
        if not self.verify(domain, message, signature):
            raise InvalidSignature(f"bad RSA signature in domain {domain!r}")


@dataclass(frozen=True)
class RSAKeyPair:
    """An RSA key pair with the prime factorization kept for CRT signing."""

    n: int
    e: int
    d: int
    p: int
    q: int
    #: CRT exponents ``d mod (p-1)`` and ``d mod (q-1)`` and coefficient
    #: ``q^-1 mod p``, derived once per key
    d_p: int = field(init=False, repr=False, compare=False)
    d_q: int = field(init=False, repr=False, compare=False)
    q_inv: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "d_p", self.d % (self.p - 1))
        object.__setattr__(self, "d_q", self.d % (self.q - 1))
        object.__setattr__(self, "q_inv", arith.invmod(self.q, self.p))

    @property
    def public(self) -> RSAPublicKey:
        return RSAPublicKey(n=self.n, e=self.e)

    def sign(self, domain: str, message: bytes) -> int:
        """FDH-sign ``message`` using the CRT fast path.

        Cost accounting: two half-size exponentiations are recorded, which
        is the ~4x speed-up over a full-size exponentiation that the paper
        attributes to Chinese remaindering.
        """
        return self.sign_raw(hashing.fdh_to_zn(domain, message, self.n))

    def sign_raw(self, x: int) -> int:
        """Raw RSA private-key operation on ``x`` (CRT path)."""
        s_p = arith.mexp(x % self.p, self.d_p, self.p)
        s_q = arith.mexp(x % self.q, self.d_q, self.q)
        return arith.crt_pair(s_p, self.p, s_q, self.q, self.q_inv)


def keypair_from_primes(p: int, q: int, e: int = DEFAULT_E) -> RSAKeyPair:
    """Build a key pair from two primes; ``e`` must be coprime to phi(n)."""
    if p == q:
        raise CryptoError("RSA primes must be distinct")
    phi = (p - 1) * (q - 1)
    if math.gcd(e, phi) != 1:
        raise CryptoError("public exponent not coprime to phi(n)")
    d = arith.invmod(e, phi)
    return RSAKeyPair(n=p * q, e=e, d=d, p=p, q=q)


def generate_keypair(
    modbits: int, rng: random.Random, e: int = DEFAULT_E
) -> RSAKeyPair:
    """Generate a fresh ``modbits``-bit RSA key pair (ordinary primes)."""
    half = modbits // 2
    while True:
        p = arith.gen_prime(half, rng)
        q = arith.gen_prime(modbits - half, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if math.gcd(e, phi) != 1:
            continue
        n = p * q
        if n.bit_length() != modbits:
            continue
        return keypair_from_primes(p, q, e)
