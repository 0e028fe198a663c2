"""Per-party signature checks through a full-domain-hash digest memo.

Protocol code checks threshold signatures, their shares and ordinary
party signatures through its party's :class:`ShareVerifier`
(``ctx.crypto.verifier``).  Each check is the plain scheme call, with one
difference: its RSA full-domain hash comes from a small per-party
**digest memo** (:meth:`ShareVerifier.fdh`).  The digest of a
``(domain, message, modulus)`` this party has already hashed is not
hashed again.  Hashing performs no exponentiation, so the memo changes
no counter and bills nothing; it never answers a verdict — every
signature it serves a digest to is still exponentiated, recorded and
compared.  Coin shares, TDH2 ciphertexts and decryption shares hash no
RSA digest, so protocol code checks them with the scheme calls directly.

The memo is **per party**: scheme objects are shared between the
simulated parties of a run, so a shared memo would let one party ride on
another's CPU time.  A bundle with refreshed keys gets a fresh verifier
(see :meth:`repro.membership.epoch.EpochKeychain.party_crypto`).  It
holds the last :data:`DIGEST_MEMO` digests it computed: a statement's
signatures and shares arrive close together, so a short memory catches
nearly every repeat.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.crypto import hashing

#: per-party bound on memoized full-domain-hash digests
DIGEST_MEMO = 32


class ShareVerifier:
    """Per-party signature checks with a digest memo (see module doc)."""

    def __init__(self) -> None:
        self._digests: Dict[Tuple[str, bytes, int], int] = {}

    def fdh(self, domain: str, message: bytes, n: int) -> int:
        """:func:`repro.crypto.hashing.fdh_to_zn`, memoized for this party."""
        key = (domain, bytes(message), n)
        x = self._digests.get(key)
        if x is None:
            x = self._digests[key] = hashing.fdh_to_zn(domain, message, n)
            if len(self._digests) > DIGEST_MEMO:
                del self._digests[next(iter(self._digests))]  # the oldest
        return x

    def sig_share_ok(self, scheme: Any, message: bytes, share: bytes) -> bool:
        """Verify one threshold-signature share."""
        return scheme.verify_share(message, share, self.fdh)

    def sig_ok(self, scheme: Any, message: bytes, signature: bytes) -> bool:
        """Verify an assembled threshold signature."""
        return scheme.verify(message, signature, self.fdh)

    def party_sig_ok(self, pk: Any, domain: str, message: bytes, sig: int) -> bool:
        """Verify an ordinary per-party RSA signature."""
        return pk.verify(domain, message, sig, self.fdh)


__all__ = ["ShareVerifier"]
