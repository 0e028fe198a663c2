"""Per-party signature checks through a bounded, billed verdict memo.

Protocol code checks threshold signatures, their shares, ordinary party
signatures and TDH2 decryption shares through its party's
:class:`ShareVerifier` (``ctx.crypto.verifier``).  Each check is the plain
scheme call, run once per distinct input: the verifier remembers the last
:data:`VERDICTS` verdicts it reached, each under the **whole input** of
its check (the key object checked against, the message and the
signature or share), together with the **bill** the check recorded
(:class:`repro.crypto.opcount.OpCounter`).  A repeated input returns the
stored verdict, true or false, and adds the stored bill to the active
counter, so the cost model and every ``crypto.*`` counter read exactly as
if the check had run again; only the host skips the exponentiations, the
full-domain hash and the decoding.

The memo holds a reference to every key object it files under, so an
object's identity is never reused while its entries live: schemes are
keyed by identity, RSA public keys and ciphertexts by value (a
:class:`~repro.crypto.threshold_enc.Ciphertext` compares field for field,
which is equality of its canonical bytes).  Any change
to the key, message or signature is a different input and is checked in
full.

The memo is **per party**: scheme objects are shared between the
simulated parties of a run, so a shared memo would let one party ride on
another's CPU time.  A bundle with refreshed keys gets a fresh verifier
(see :meth:`repro.membership.epoch.EpochKeychain.party_crypto`), so
verdicts never cross a key epoch.  A statement's signatures and shares
arrive close together: every repeat measured on the benchmark workloads
came at most 12 distinct checks after the first (docs/PERFORMANCE.md),
so a short memory catches them all.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.crypto import opcount

#: per-party bound on remembered verdicts (least recently used goes first)
VERDICTS = 32


class ShareVerifier:
    """Per-party signature checks with a verdict memo (see module doc)."""

    def __init__(self) -> None:
        self._verdicts: Dict[tuple, Tuple[bool, opcount.OpCounter]] = {}

    def _judge(self, key: tuple, check: Callable[..., bool], *args: Any) -> bool:
        """``check(*args)``, remembered under ``key`` and billed every time."""
        memo = self._verdicts
        entry = memo.pop(key, None)
        if entry is None:
            bill = opcount.push()
            try:
                verdict = bool(check(*args))
            finally:
                opcount.pop()
                opcount.replay(bill)
            if len(memo) >= VERDICTS:
                del memo[next(iter(memo))]  # the least recently used
            entry = (verdict, bill)
        else:
            opcount.replay(entry[1])
        memo[key] = entry
        return entry[0]

    def sig_share_ok(self, scheme: Any, message: bytes, share: bytes) -> bool:
        """Verify one threshold-signature share."""
        return self._judge(
            ("share", scheme, message, share), scheme.verify_share, message, share
        )

    def sig_ok(self, scheme: Any, message: bytes, signature: bytes) -> bool:
        """Verify an assembled threshold signature."""
        return self._judge(
            ("sig", scheme, message, signature), scheme.verify, message, signature
        )

    def party_sig_ok(self, pk: Any, domain: str, message: bytes, sig: int) -> bool:
        """Verify an ordinary per-party RSA signature."""
        return self._judge(
            ("party", pk, domain, message, sig), pk.verify, domain, message, sig
        )

    def dec_share_ok(self, scheme: Any, ctxt: Any, share: bytes) -> bool:
        """Verify one TDH2 decryption share against a ciphertext."""
        return self._judge(
            ("dec", scheme, ctxt, share), scheme.verify_share, ctxt, share
        )


__all__ = ["ShareVerifier", "VERDICTS"]
