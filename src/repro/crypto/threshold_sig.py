"""Dual-threshold signatures: Shoup's RSA scheme and multi-signatures.

SINTRA uses ``(n, k, t)`` dual-threshold signatures (Sec. 2.1): among ``n``
parties up to ``t`` may be corrupted and ``k > t`` shares are needed to
assemble a signature.  Two interchangeable implementations are provided,
exactly as in the paper:

* :class:`ShoupThresholdScheme` — Shoup's practical RSA threshold
  signatures [17].  Shares are non-interactive, carry a zero-knowledge
  proof of correctness, and assemble into a *standard* RSA signature.

* :class:`MultiSignatureScheme` — a vector of ordinary RSA signatures from
  the parties' individual signing keys.  Cheaper to generate (one CRT
  signing operation) and to verify when a signature is checked only a few
  times; larger on the wire.  Requires no change to the protocols that use
  threshold signatures.

Both follow the same abstract interface so protocol code is agnostic.
Shares and signatures are opaque byte strings (canonical encoding).
"""

from __future__ import annotations

import abc
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.encoding import decode, encode
from repro.common.errors import CryptoError, EncodingError, InvalidShare, InvalidSignature
from repro.crypto import arith, hashing
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey

_PROOF_DOMAIN = "shoup.share-proof"


def _hash_bits(modulus: int) -> int:
    """Statistical/challenge parameter of the share proofs.

    Scales with the modulus so that costs rescale homogeneously between a
    run's actual and nominal key sizes: exactly the 256-bit challenge of a
    SHA-256 instantiation at the paper's 1024-bit moduli, proportionally
    smaller for the reduced test sizes (which are insecure anyway).
    """
    return max(64, modulus.bit_length() // 4)


class ThresholdSignatureScheme(abc.ABC):
    """Public (verification/combination) side of a threshold signature.

    Every party holds an instance; the party that also owns a secret share
    obtains a :class:`ThresholdSigner` via :meth:`signer`.
    """

    n: int
    k: int
    t: int

    @abc.abstractmethod
    def signer(self, index: int, secret: object) -> "ThresholdSigner":
        """Bind party ``index`` (1-based) with its secret key material."""

    @abc.abstractmethod
    def verify_share(self, message: bytes, share: bytes) -> bool:
        """Check a single signature share against ``message``."""

    @abc.abstractmethod
    def combine(self, message: bytes, shares: Dict[int, bytes]) -> bytes:
        """Assemble ``k`` verified shares into a full signature."""

    @abc.abstractmethod
    def verify(self, message: bytes, signature: bytes) -> bool:
        """Check an assembled threshold signature."""

    #: Number of integer fields in an encoded share, the index first.
    share_arity: int

    def _decode_share(self, share: bytes) -> Tuple[int, ...]:
        """Decode a share into its integer fields, the 1-based index first.

        Raises :class:`InvalidShare` unless the share is a tuple of
        ``share_arity`` integers whose index is in range, so a share that
        passes here cannot make :meth:`combine` fail on its shape.
        """
        try:
            decoded = decode(share)
        except EncodingError as exc:
            raise InvalidShare("malformed signature share") from exc
        if not isinstance(decoded, tuple) or len(decoded) != self.share_arity:
            raise InvalidShare("malformed signature share")
        if not all(isinstance(v, int) for v in decoded):
            raise InvalidShare("malformed signature share")
        if not 1 <= decoded[0] <= self.n:
            raise InvalidShare(f"share index {decoded[0]!r} out of range")
        return decoded

    def share_index(self, share: bytes) -> int:
        """Extract the 1-based signer index from an encoded share."""
        return self._decode_share(share)[0]

    def check(self, message: bytes, signature: bytes) -> None:
        if not self.verify(message, signature):
            raise InvalidSignature("threshold signature verification failed")


class ThresholdSigner(abc.ABC):
    """Per-party secret side: generates signature shares."""

    scheme: ThresholdSignatureScheme
    index: int

    @abc.abstractmethod
    def sign_share(self, message: bytes) -> bytes:
        """Produce this party's share on ``message``."""


# ---------------------------------------------------------------------------
# Shoup's RSA threshold signatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShoupPublicKey:
    """Public data of a dealt Shoup threshold-signature instance."""

    modulus: int  # N = pq, p and q safe primes
    e: int
    v: int  # verifier base, generator of the squares
    verification_keys: Tuple[int, ...]  # v_i = v^{s_i}, index i-1


class ShoupThresholdScheme(ThresholdSignatureScheme):
    """Shoup's practical threshold signatures ([17], Sec. 2.1).

    ``domain`` separates the full-domain hash of this instance from other
    uses of RSA-FDH in the system.
    """

    share_arity = 4  # (index, x_i, c, z)

    def __init__(self, n: int, k: int, t: int, public: ShoupPublicKey, domain: str):
        if not t < k <= n:
            raise CryptoError(f"invalid thresholds (n={n}, k={k}, t={t})")
        self.n = n
        self.k = k
        self.t = t
        self.public = public
        self.domain = domain
        self._delta = arith.factorial(n)
        hash_bits = _hash_bits(public.modulus)
        self._hash_bound = 1 << hash_bits
        # an honest proof response z = s_i*c + r with s_i*c and the nonce r
        # both below 2^(|N| + 2*hash_bits) (ShoupSigner) stays below this
        self._z_bound = 1 << (public.modulus.bit_length() + 2 * hash_bits + 1)

    # -- dealing ------------------------------------------------------------

    @staticmethod
    def deal(
        n: int,
        k: int,
        t: int,
        safe_p: int,
        safe_q: int,
        rng: random.Random,
        domain: str,
    ) -> Tuple["ShoupThresholdScheme", List[int]]:
        """Dealer-side key generation.

        ``safe_p`` and ``safe_q`` must be safe primes.  Returns the public
        scheme and the list of secret shares ``s_1..s_n`` (1-based order).
        """
        modulus = safe_p * safe_q
        m = ((safe_p - 1) // 2) * ((safe_q - 1) // 2)
        e = 65537 if n < 65537 else arith.next_prime(n, rng)
        if math.gcd(e, m) != 1:
            raise CryptoError("public exponent collides with secret modulus")
        d = arith.invmod(e, m)
        coeffs = [d] + [rng.randrange(m) for _ in range(k - 1)]
        shares = [arith.poly_eval(coeffs, i, m) for i in range(1, n + 1)]
        while True:
            r = rng.randrange(2, modulus)
            if math.gcd(r, modulus) == 1:
                break
        v = arith.powmod(r, 2, modulus)
        vks = tuple(arith.powmod(v, s, modulus) for s in shares)
        public = ShoupPublicKey(modulus=modulus, e=e, v=v, verification_keys=vks)
        return ShoupThresholdScheme(n, k, t, public, domain), shares

    # -- helpers ------------------------------------------------------------

    def _digest(self, message: bytes) -> int:
        return hashing.fdh_to_zn(self.domain, message, self.public.modulus)

    def signer(self, index: int, secret: object) -> "ShoupSigner":
        return ShoupSigner(self, index, int(secret))  # type: ignore[arg-type]

    # -- share verification --------------------------------------------------

    def verify_share(self, message: bytes, share: bytes) -> bool:
        try:
            index, x_i, c, z = self._decode_share(share)
        except InvalidShare:
            return False
        N = self.public.modulus
        if not 0 < x_i < N:
            return False
        # bound the proof before any exponentiation: an oversized z would
        # make the check cost grow with the bits a faulty party sends
        if not (0 <= c < self._hash_bound and 0 <= z < self._z_bound):
            return False
        x = self._digest(message)
        x_tilde = arith.mexp(x, 4 * self._delta, N)
        v = self.public.v
        v_i = self.public.verification_keys[index - 1]
        x_i_sq = (x_i * x_i) % N
        try:
            v_i_inv_c = arith.mexp(arith.invmod(v_i, N), c, N)
            x_i_inv_2c = arith.mexp(arith.invmod(x_i_sq, N), c, N)
        except CryptoError:
            return False
        v_prime = (arith.mexp(v, z, N) * v_i_inv_c) % N
        x_prime = (arith.mexp(x_tilde, z, N) * x_i_inv_2c) % N
        expected = hashing.challenge(
            _PROOF_DOMAIN,
            (self.domain, index, v, x_tilde, v_i, x_i_sq, v_prime, x_prime),
            self._hash_bound,
        )
        return c == expected

    # -- combination ---------------------------------------------------------

    def combine(self, message: bytes, shares: Dict[int, bytes]) -> bytes:
        if len(shares) < self.k:
            raise CryptoError(f"need {self.k} shares, got {len(shares)}")
        N = self.public.modulus
        picked: Dict[int, int] = {}
        for index in sorted(shares)[: self.k]:
            decoded = self._decode_share(shares[index])
            if decoded[0] != index:
                raise InvalidShare("share indexed under wrong key")
            picked[index] = decoded[1]
        lam = arith.integer_lagrange_at_zero(sorted(picked), self._delta)
        w = 1
        for j, x_j in picked.items():
            coeff = 2 * lam[j]
            if coeff >= 0:
                w = (w * arith.mexp(x_j, coeff, N)) % N
            else:
                w = (w * arith.mexp(arith.invmod(x_j, N), -coeff, N)) % N
        # w^e == x^{e'} with e' = 4*Delta^2; since gcd(e, e') == 1 compute y
        # with y^e == x from the Bezout relation e'*a + e*b == 1.
        e_prime = 4 * self._delta * self._delta
        g, a, b = arith.egcd(e_prime, self.public.e)
        if g != 1:
            raise CryptoError("gcd(e', e) != 1; invalid public exponent")
        x = self._digest(message)
        w_a = arith.mexp(w, a, N) if a >= 0 else arith.mexp(arith.invmod(w, N), -a, N)
        x_b = arith.mexp(x, b, N) if b >= 0 else arith.mexp(arith.invmod(x, N), -b, N)
        y = (w_a * x_b) % N
        if arith.mexp(y, self.public.e, N) != x:
            raise InvalidShare("combined signature invalid; a share was bad")
        return encode(y)

    def verify(self, message: bytes, signature: bytes) -> bool:
        try:
            y = decode(signature)
        except EncodingError:
            return False
        if not isinstance(y, int) or not 0 < y < self.public.modulus:
            return False
        x = self._digest(message)
        return arith.mexp(y, self.public.e, self.public.modulus) == x


class ShoupSigner(ThresholdSigner):
    """Holds share ``s_i`` and emits proved signature shares."""

    def __init__(self, scheme: ShoupThresholdScheme, index: int, share: int):
        if not 1 <= index <= scheme.n:
            raise CryptoError(f"signer index {index} out of range")
        self.scheme = scheme
        self.index = index
        self._share = share

    def sign_share(self, message: bytes) -> bytes:
        scheme = self.scheme
        N = scheme.public.modulus
        x = scheme._digest(message)
        delta = scheme._delta
        x_i = arith.mexp(x, 2 * delta * self._share, N)
        # Chaum-Pedersen-style proof that log_{x~}(x_i^2) == log_v(v_i).
        x_tilde = arith.mexp(x, 4 * delta, N)
        bound = 1 << (N.bit_length() + 2 * _hash_bits(N))
        # Deterministic nonce derived from the secret share and the message
        # (RFC-6979 style): secure against nonce reuse and keeps simulation
        # runs bit-for-bit reproducible.
        r = hashing.hash_to_int(
            "shoup.nonce", encode((self.index, self._share, message)), bound
        )
        v_prime = arith.mexp(scheme.public.v, r, N)
        x_prime = arith.mexp(x_tilde, r, N)
        x_i_sq = (x_i * x_i) % N
        v_i = scheme.public.verification_keys[self.index - 1]
        c = hashing.challenge(
            _PROOF_DOMAIN,
            (scheme.domain, self.index, scheme.public.v, x_tilde, v_i, x_i_sq,
             v_prime, x_prime),
            scheme._hash_bound,
        )
        z = self._share * c + r
        return encode((self.index, x_i, c, z))


# ---------------------------------------------------------------------------
# Multi-signatures
# ---------------------------------------------------------------------------


class MultiSignatureScheme(ThresholdSignatureScheme):
    """Threshold signatures as a vector of ordinary RSA signatures.

    A share is party ``i``'s standard FDH signature; an assembled signature
    is any ``k`` of them from distinct parties.  As the paper notes, this is
    Reiter's echo-broadcast instantiation and is preferable when computation
    is more expensive than communication.
    """

    share_arity = 2  # (index, sig)

    def __init__(
        self,
        n: int,
        k: int,
        t: int,
        public_keys: List[RSAPublicKey],
        domain: str,
    ):
        if not t < k <= n:
            raise CryptoError(f"invalid thresholds (n={n}, k={k}, t={t})")
        if len(public_keys) != n:
            raise CryptoError("need one public key per party")
        self.n = n
        self.k = k
        self.t = t
        self.public_keys = list(public_keys)
        self.domain = domain

    def signer(self, index: int, secret: object) -> "MultiSigner":
        if not isinstance(secret, RSAKeyPair):
            raise CryptoError("multi-signature signer needs an RSAKeyPair")
        return MultiSigner(self, index, secret)

    def verify_share(self, message: bytes, share: bytes) -> bool:
        member = self.share_member(share)
        if member is None:
            return False
        index, sig = member
        return self.verify_member(index, message, sig)

    def combine(self, message: bytes, shares: Dict[int, bytes]) -> bytes:
        if len(shares) < self.k:
            raise CryptoError(f"need {self.k} shares, got {len(shares)}")
        picked = []
        for index in sorted(shares)[: self.k]:
            decoded = self._decode_share(shares[index])
            if decoded[0] != index:
                raise InvalidShare("share indexed under wrong key")
            picked.append((index, decoded[1]))
        return encode(picked)

    def members(self, signature: bytes) -> "Optional[List[tuple]]":
        """Decode an assembled signature into its ``(index, sig)`` members.

        Returns ``None`` when the signature is structurally invalid (bad
        encoding, duplicate or out-of-range indices, fewer than ``k``
        entries) — exactly the cases :meth:`verify` rejects before
        performing any exponentiation.
        """
        try:
            entries = decode(signature)
        except EncodingError:
            return None
        if not isinstance(entries, list) or len(entries) < self.k:
            return None
        seen = set()
        out = []
        for entry in entries:
            if not isinstance(entry, tuple) or len(entry) != 2:
                return None
            index, sig = entry
            if not isinstance(index, int) or not 1 <= index <= self.n:
                return None
            if index in seen or not isinstance(sig, int):
                return None
            seen.add(index)
            out.append((index, sig))
        return out

    def share_member(self, share: bytes) -> "Optional[tuple]":
        """The ``(index, sig)`` member a share contributes, or ``None``."""
        try:
            index, sig = self._decode_share(share)
        except InvalidShare:
            return None
        return index, sig

    def verify_member(self, index: int, message: bytes, sig: int) -> bool:
        """Verify one member signature (one RSA verification)."""
        return self.public_keys[index - 1].verify(self.domain, message, sig)

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Check an assembled multi-signature (``k`` RSA verifications)."""
        entries = self.members(signature)
        if entries is None:
            return False
        return all(
            self.verify_member(index, message, sig) for index, sig in entries
        )


def combine_optimistically(
    scheme: ThresholdSignatureScheme,
    message: bytes,
    shares: Dict[int, bytes],
    verifier: Optional[object] = None,
) -> Optional[bytes]:
    """Combine-first, verify-shares-only-on-failure (robust fast path).

    All of SINTRA's threshold-signature uses collect shares from
    authenticated senders, so in runs without corruption every share is
    valid and per-share proof verification is wasted work.  This helper
    tries to combine and checks the *result* once (cheap); only when that
    fails does it verify shares individually, evict the invalid ones from
    ``shares`` (mutating the caller's dict), and return ``None`` so the
    caller can wait for replacement shares.  Guarantees: returns either a
    valid signature or ``None``.

    ``verifier`` optionally routes the signature/share checks through a
    party's :class:`repro.crypto.verifier.ShareVerifier` (its verdict memo).
    """
    def _verify(sig: bytes) -> bool:
        if verifier is not None:
            return verifier.sig_ok(scheme, message, sig)
        return scheme.verify(message, sig)

    def _share_ok(share: bytes) -> bool:
        if verifier is not None:
            return verifier.sig_share_ok(scheme, message, share)
        return scheme.verify_share(message, share)

    try:
        signature = scheme.combine(message, shares)
    except (CryptoError, InvalidShare):
        signature = None
    else:
        if _verify(signature):
            return signature
        signature = None
    # Slow path: a corrupted party contributed garbage.
    bad = [
        index for index, share in shares.items() if not _share_ok(share)
    ]
    for index in bad:
        del shares[index]
    if len(shares) >= scheme.k:
        signature = scheme.combine(message, shares)
        if _verify(signature):
            return signature
    return None


class MultiSigner(ThresholdSigner):
    """Signs shares with the party's ordinary RSA key (CRT fast path)."""

    def __init__(self, scheme: MultiSignatureScheme, index: int, keypair: RSAKeyPair):
        if not 1 <= index <= scheme.n:
            raise CryptoError(f"signer index {index} out of range")
        if keypair.n != scheme.public_keys[index - 1].n:
            raise CryptoError("keypair does not match registered public key")
        self.scheme = scheme
        self.index = index
        self._keypair = keypair

    def sign_share(self, message: bytes) -> bytes:
        sig = self._keypair.sign(self.scheme.domain, message)
        return encode((self.index, sig))
