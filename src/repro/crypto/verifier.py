"""Per-party verification front-end for threshold-crypto shares.

Protocol code routes every share/signature/ciphertext check through its
party's :class:`ShareVerifier` (``ctx.crypto.accel``) instead of calling
the schemes directly — it is the only verification path.  With
acceleration off (:func:`repro.crypto.fastexp.enabled`, the default) every
method is a plain scheme call, hashing through the digest memo below: the
paper's naive operation mix.  With it on, the verifier keeps a bounded
**verdict cache** (the switch's only effect): a share, signature or
ciphertext proof that verified (or failed) once is never re-verified by
this party, and a hit performs and records no exponentiation.  A miss runs
and bills the same scheme call as with the switch off.

The cache is **per party** and **per key epoch**: scheme objects are shared
between the simulated parties of a run, so scheme-level memoization would
let one party ride on another's CPU time; and cache keys name the scheme's
domain, not its verification keys, so a bundle with refreshed keys must
get a fresh verifier (see :meth:`repro.membership.epoch.EpochKeychain.
party_crypto`).

Separately, and whatever the switch says, the verifier keeps a small
**digest memo** (:meth:`ShareVerifier.fdh`): the RSA full-domain hash of a
``(domain, message, modulus)`` this party has already hashed is not
hashed again.  Hashing performs no exponentiation, so the memo changes no
counter and bills nothing; it never answers a verdict — every signature
it serves a digest to is still exponentiated, recorded and compared.  It
is per party for the same reason as the verdict cache, and holds the
last :data:`DIGEST_MEMO` digests it computed: a statement's signatures and
shares arrive close together, so a short memory catches nearly every
repeat.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro.crypto import fastexp, hashing

#: per-party bound on memoized full-domain-hash digests
DIGEST_MEMO = 32
#: per-party bound on cached verification verdicts
SHARE_CACHE = 4096


class LRU:
    """A tiny bounded mapping (insertion-refreshing LRU)."""

    __slots__ = ("maxsize", "_data")

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._data: "OrderedDict[object, object]" = OrderedDict()

    def get(self, key: object) -> Optional[object]:
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: object, value: object) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > max(self.maxsize, 1):
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data


class ShareVerifier:
    """Per-party verification front-end with a verdict cache and a digest
    memo (see module doc)."""

    def __init__(self) -> None:
        self._results = LRU(SHARE_CACHE)
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

    def _memo(self, key: tuple, compute: Callable[[], Any]) -> Any:
        """``compute()``, at most once per ``key`` while acceleration is on."""
        if not fastexp.enabled():
            return compute()
        verdict = self._results.get(key)  # None is a miss: verdicts never are
        if verdict is None:
            verdict = compute()
            self._results.put(key, verdict)
        return verdict

    # -- threshold coin ---------------------------------------------------------

    def gtilde(self, coin: Any, name: bytes) -> int:
        """The coin's group element ``g~ = H'(name)``, cached per party.

        The cofactor exponentiation inside ``hash_to_group`` is a
        full-size-exponent operation performed by *every* naive share
        verification; caching it per (domain, name) is one of the larger
        wins of the verified-result cache.
        """
        return self._memo(
            ("gtilde", coin.domain, bytes(name)),
            lambda: coin._name_to_group(name),
        )

    def coin_share_ok(self, coin: Any, name: bytes, share: bytes) -> bool:
        """Verify one coin share (cached)."""
        return self._memo(
            ("coin", coin.domain, bytes(name), bytes(share)),
            lambda: coin.verify_share(name, share, gtilde=self.gtilde(coin, name)),
        )

    # -- threshold decryption ---------------------------------------------------

    def _ctxt_key(self, scheme: Any, ctxt: Any) -> bytes:
        return hashing.sha256(ctxt.to_bytes())

    def ciphertext_ok(self, scheme: Any, ctxt: Any) -> bool:
        """Verify a TDH2 ciphertext's NIZK of well-formedness (cached)."""
        return self._memo(
            ("tdh2.ctxt", scheme.domain, self._ctxt_key(scheme, ctxt)),
            lambda: scheme.check_ciphertext(ctxt),
        )

    def enc_share_ok(self, scheme: Any, ctxt: Any, share: bytes) -> bool:
        """Verify one decryption share against a ciphertext (cached)."""
        return self._memo(
            ("tdh2.share", scheme.domain, self._ctxt_key(scheme, ctxt), bytes(share)),
            lambda: scheme.verify_share(ctxt, share),
        )

    # -- threshold signatures ---------------------------------------------------

    def sig_share_ok(self, scheme: Any, message: bytes, share: bytes) -> bool:
        """Verify one threshold-signature share (cached).

        Multi-signature shares are cached under their ``(index, sig)``
        member identity so a later certificate containing the same RSA
        signature (see :meth:`sig_ok`) is a cache hit, and vice versa.
        """
        if fastexp.enabled() and hasattr(scheme, "share_member"):
            member = scheme.share_member(share)
            if member is None:
                return False
            index, sig = member
            return self._memo(
                ("sig.m", scheme.domain, bytes(message), index, sig),
                lambda: scheme.verify_member(index, message, sig, self.fdh),
            )
        return self._memo(
            ("sig.share", scheme.domain, bytes(message), bytes(share)),
            lambda: scheme.verify_share(message, share, self.fdh),
        )

    def sig_ok(self, scheme: Any, message: bytes, signature: bytes) -> bool:
        """Verify an assembled threshold signature (cached).

        Certificates recur: availability certificates and vote
        justifications are re-checked at several protocol layers, and a
        multi-signature verify is ``k`` RSA verifications each time.  A
        multi-signature certificate is verified member by member against
        the same cache entries as the individual shares it was combined
        from, so certificate verification right after share collection
        performs no new exponentiations.
        """
        if fastexp.enabled() and hasattr(scheme, "members"):
            entries = scheme.members(signature)
            if entries is None:
                return False
            for index, sig in entries:
                verdict = self._memo(
                    ("sig.m", scheme.domain, bytes(message), index, sig),
                    lambda index=index, sig=sig: scheme.verify_member(
                        index, message, sig, self.fdh
                    ),
                )
                if not verdict:
                    return False
            return True
        return self._memo(
            ("sig", scheme.domain, bytes(message), bytes(signature)),
            lambda: scheme.verify(message, signature, self.fdh),
        )

    # -- ordinary per-party RSA signatures ---------------------------------------

    def party_sig_ok(
        self, pk: Any, signer: int, domain: str, message: bytes, sig: int
    ) -> bool:
        """Verify party ``signer``'s ordinary RSA signature (cached).

        Batch vectors are signed once but re-checked on every validity
        predicate evaluation; caching the verdict turns all but the first
        check into a replay.
        """
        return self._memo(
            ("rsa", domain, signer, bytes(message), sig),
            lambda: pk.verify(domain, message, sig, self.fdh),
        )


__all__ = ["ShareVerifier"]
