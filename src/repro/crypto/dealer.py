"""The trusted dealer (paper Sec. 2).

SINTRA's group model is static: a trusted dealer runs once at system
initialization, generates every secret — pairwise link-authentication keys,
per-party RSA signing keys, and the shares of all threshold schemes — and
distributes them to the servers.  The dealer is needed because efficient
distributed key generation in a fully asynchronous network is not known
(as the paper notes); it is never involved again after setup.

Thresholds dealt, following Secs. 2.1-2.6:

* consistent-broadcast signatures: ``k = ceil((n + t + 1) / 2)`` (the echo
  quorum);
* agreement justification signatures: ``k = n - t`` (a main-vote /
  pre-vote quorum);
* threshold coin: ``k = t + 1`` — unpredictable as soon as one honest
  party has not yet released a share;
* threshold decryption (TDH2): ``k = t + 1``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.crypto import params as params_mod
from repro.crypto.coin import CoinShareHolder, ThresholdCoin
from repro.crypto.hmac_auth import KEY_BYTES, LinkAuthenticator
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey, generate_keypair
from repro.crypto.threshold_enc import TDH2Scheme, TDH2ShareHolder
from repro.crypto.threshold_sig import (
    MultiSignatureScheme,
    ShoupThresholdScheme,
    ThresholdSignatureScheme,
    ThresholdSigner,
)
from repro.crypto.verifier import ShareVerifier

SIG_MODE_MULTI = "multi"
SIG_MODE_SHOUP = "shoup"


def cbc_quorum(n: int, t: int) -> int:
    """The consistent-broadcast echo quorum ``ceil((n + t + 1) / 2)``."""
    return (n + t + 2) // 2


@dataclass
class PartyCrypto:
    """Everything party ``index0`` (0-based) needs to run the protocols.

    Threshold-scheme share indices are 1-based (``index0 + 1``) following
    the crypto literature; the rest of the system uses 0-based party ids as
    in the paper's implementation section.
    """

    index0: int
    n: int
    t: int
    rsa: RSAKeyPair
    party_public_keys: List[RSAPublicKey]
    mac_keys: Dict[int, bytes]
    cbc_scheme: ThresholdSignatureScheme
    cbc_signer: ThresholdSigner
    aba_scheme: ThresholdSignatureScheme
    aba_signer: ThresholdSigner
    coin: ThresholdCoin
    coin_holder: CoinShareHolder
    enc: TDH2Scheme
    enc_holder: TDH2ShareHolder
    #: this party's signature checks and verdict memo — one per party and
    #: key epoch, because scheme objects are shared across parties and
    #: each simulated node must pay for its own checks.
    verifier: ShareVerifier = field(default_factory=ShareVerifier)

    def sign(self, domain: str, message: bytes) -> int:
        """Standard RSA signature with this party's personal key."""
        return self.rsa.sign(domain, message)

    def verify_party(self, j: int, domain: str, message: bytes, sig: int) -> bool:
        """Verify a standard signature by party ``j`` (0-based)."""
        if not 0 <= j < self.n:
            return False
        return self.verifier.party_sig_ok(
            self.party_public_keys[j], domain, message, sig
        )

    def link_auth(self, peer: int) -> LinkAuthenticator:
        """The authenticator for the link with ``peer``."""
        return LinkAuthenticator(self.mac_keys[peer])


@dataclass
class GroupConfig:
    """Output of the dealer: public info plus per-party secret bundles.

    ``raw`` holds the dealt key material in plain integers/bytes so the
    configuration can be written to per-party files
    (:mod:`repro.crypto.config_io`) and distributed out of band, as the
    paper's dealer does.
    """

    n: int
    t: int
    sig_mode: str
    security: params_mod.SecurityParams
    parties: List[PartyCrypto] = field(default_factory=list)
    raw: Optional[dict] = None

    @property
    def enc_public_key(self):
        """The group encryption key (for external senders, Sec. 3.4)."""
        return self.parties[0].enc.public

    def party(self, index0: int) -> PartyCrypto:
        return self.parties[index0]


class Dealer:
    """Generates a complete :class:`GroupConfig` deterministically from a seed."""

    def __init__(
        self,
        n: int,
        t: int,
        security: Optional[params_mod.SecurityParams] = None,
        sig_mode: str = SIG_MODE_MULTI,
        seed: object = 0,
    ):
        if n <= 3 * t:
            raise ConfigError(f"SINTRA requires n > 3t (got n={n}, t={t})")
        if t < 0:
            raise ConfigError("t must be non-negative")
        if sig_mode not in (SIG_MODE_MULTI, SIG_MODE_SHOUP):
            raise ConfigError(f"unknown sig_mode {sig_mode!r}")
        self.n = n
        self.t = t
        self.sig_mode = sig_mode
        self.security = security or params_mod.SecurityParams.small()
        self._rng = random.Random(repr(("repro.dealer", seed, n, t, sig_mode)))

    # -- pieces ----------------------------------------------------------------

    def _gen_rsa_keys(self) -> List[RSAKeyPair]:
        bits = self.security.sig_modbits
        return [generate_keypair(bits, self._rng) for _ in range(self.n)]

    def _gen_mac_keys(self) -> Dict[frozenset, bytes]:
        keys: Dict[frozenset, bytes] = {}
        for i in range(self.n):
            for j in range(i + 1, self.n):
                keys[frozenset((i, j))] = bytes(
                    self._rng.getrandbits(8) for _ in range(KEY_BYTES)
                )
        return keys

    def _deal_sig(
        self, k: int, domain: str, public_keys: List[RSAPublicKey]
    ) -> "tuple[ThresholdSignatureScheme, list]":
        if self.sig_mode == SIG_MODE_MULTI:
            scheme = MultiSignatureScheme(self.n, k, self.t, public_keys, domain)
            return scheme, [None] * self.n  # secrets are the parties' RSA keys
        safe_p, safe_q = params_mod.get_rsa_safe_primes(self.security.sig_modbits)
        return ShoupThresholdScheme.deal(
            self.n, k, self.t, safe_p, safe_q, self._rng, domain
        )

    # -- main ---------------------------------------------------------------------

    def deal(self) -> GroupConfig:
        """Run the one-time trusted setup and return the group configuration."""
        n, t = self.n, self.t
        rsa_keys = self._gen_rsa_keys()
        public_keys = [kp.public for kp in rsa_keys]
        mac_keys = self._gen_mac_keys()

        cbc_scheme, cbc_secrets = self._deal_sig(
            cbc_quorum(n, t), "sintra.cbc-sig", public_keys
        )
        aba_scheme, aba_secrets = self._deal_sig(n - t, "sintra.aba-sig", public_keys)

        group = params_mod.get_dl_group(self.security.dl_bits)
        coin, coin_shares = ThresholdCoin.deal(
            n, t + 1, t, group, self._rng, "sintra.coin"
        )
        enc, enc_shares = TDH2Scheme.deal(
            n, t + 1, t, group, self._rng, "sintra.enc"
        )

        def sig_raw(scheme, secrets) -> dict:
            if self.sig_mode == SIG_MODE_MULTI:
                return {"k": scheme.k}
            return {
                "k": scheme.k,
                "modulus": scheme.public.modulus,
                "e": scheme.public.e,
                "v": scheme.public.v,
                "vks": list(scheme.public.verification_keys),
                "secrets": list(secrets),
            }

        raw = {
            "n": n,
            "t": t,
            "sig_mode": self.sig_mode,
            "security": {
                "sig_modbits": self.security.sig_modbits,
                "dl_bits": self.security.dl_bits,
                "nominal_bits": self.security.nominal_bits,
            },
            "rsa": [
                {"n": kp.n, "e": kp.e, "d": kp.d, "p": kp.p, "q": kp.q}
                for kp in rsa_keys
            ],
            "mac": {
                f"{min(pair)}-{max(pair)}": key.hex()
                for pair, key in mac_keys.items()
            },
            "cbc": sig_raw(cbc_scheme, cbc_secrets),
            "aba": sig_raw(aba_scheme, aba_secrets),
            "coin": {
                "k": coin.k,
                "global_vk": coin.public.global_vk,
                "vks": list(coin.public.verification_keys),
                "shares": list(coin_shares),
            },
            "enc": {
                "k": enc.k,
                "gbar": enc.public.gbar,
                "h": enc.public.h,
                "vks": list(enc.public.verification_keys),
                "shares": list(enc_shares),
            },
        }

        config = GroupConfig(
            n=n, t=t, sig_mode=self.sig_mode, security=self.security, raw=raw
        )
        for i in range(n):
            share_index = i + 1
            if self.sig_mode == SIG_MODE_MULTI:
                cbc_signer = cbc_scheme.signer(share_index, rsa_keys[i])
                aba_signer = aba_scheme.signer(share_index, rsa_keys[i])
            else:
                cbc_signer = cbc_scheme.signer(share_index, cbc_secrets[i])
                aba_signer = aba_scheme.signer(share_index, aba_secrets[i])
            config.parties.append(
                PartyCrypto(
                    index0=i,
                    n=n,
                    t=t,
                    rsa=rsa_keys[i],
                    party_public_keys=public_keys,
                    mac_keys={
                        j: mac_keys[frozenset((i, j))] for j in range(n) if j != i
                    },
                    cbc_scheme=cbc_scheme,
                    cbc_signer=cbc_signer,
                    aba_scheme=aba_scheme,
                    aba_signer=aba_signer,
                    coin=coin,
                    coin_holder=coin.holder(share_index, coin_shares[i]),
                    enc=enc,
                    enc_holder=enc.holder(share_index, enc_shares[i]),
                )
            )
        return config



def fast_group(
    n: int,
    t: int,
    security: Optional[params_mod.SecurityParams] = None,
    sig_mode: str = SIG_MODE_MULTI,
    seed: object = 0,
) -> GroupConfig:
    """Convenience wrapper: ``Dealer(...).deal()``."""
    return Dealer(n, t, security=security, sig_mode=sig_mode, seed=seed).deal()
