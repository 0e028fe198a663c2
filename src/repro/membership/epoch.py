"""Per-epoch threshold key material, derived deterministically.

A reconfiguration epoch needs every (surviving and joining) replica to
agree on the refreshed shares *without a live dealer round*: the dealer
in SINTRA is an offline, trusted setup step, and we keep it that way by
making epoch material a pure function of

    (epoch-0 dealt material, epoch number, epoch roster).

Every replica that knows the epoch-0 secrets — which is exactly the set
of slot holders, since slots are dealt once and handed over out of band
with the slot's durable directory — can derive the material for *any*
epoch locally.  Derivation is non-chained (always from epoch 0, never
from epoch ``e - 1``), so a replica that slept through epochs 3..7 jumps
straight to 8 without replaying intermediate reshares.

What rotates per epoch, and what must not:

* **Coin** (Diffie-Hellman threshold coin): shares and per-party
  verification keys rotate via a zero-constant refresh polynomial; the
  group key ``global_vk = g^x`` is unchanged, so coin *values* are
  identical across epochs (agreement randomness stays consistent).
* **TDH2 encryption**: same construction; the public key ``h`` (and its
  derived ``gbar``) is stable so external clients never re-key, while
  decryption shares rotate.
* **Shoup threshold RSA** (``sig_mode="shoup"``): a fresh deal over the
  *same* cached safe primes — identical ``(modulus, e, d)``, so old
  combined signatures (checkpoint certificates!) verify forever, but a
  brand-new share polynomial and verification base ``v``.
* **Multi-signature mode**: per-party RSA keys are identity-bound, not
  threshold-shared; nothing rotates.  Cross-epoch separation comes from
  the epoch-tagged channel pid, which is baked into every signed
  statement's domain.

The derivation seed mixes a ``base_tag`` — a hash of the epoch-0 public
keys and share vectors — so two different deployments never share epoch
material even if they agree on epoch number and roster uids.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.encoding import encode
from repro.common.errors import ConfigError
from repro.crypto import reshare
from repro.crypto.coin import ThresholdCoin
from repro.crypto.dealer import SIG_MODE_SHOUP, GroupConfig, PartyCrypto
from repro.crypto.threshold_enc import TDH2Scheme
from repro.crypto.threshold_sig import ShoupThresholdScheme
from repro.crypto.verifier import ShareVerifier
from repro.membership.roster import Roster


@dataclass(frozen=True)
class EpochMaterial:
    """Everything epoch-specific: refreshed schemes plus the full share
    vectors (1-based order), from which any slot's holder is built."""

    epoch: int
    roster_members: Tuple[Optional[str], ...]
    coin: ThresholdCoin
    coin_shares: Tuple[int, ...]
    enc: TDH2Scheme
    enc_shares: Tuple[int, ...]
    cbc: Optional[ShoupThresholdScheme] = None
    cbc_shares: Optional[Tuple[int, ...]] = None
    aba: Optional[ShoupThresholdScheme] = None
    aba_shares: Optional[Tuple[int, ...]] = None


class EpochKeychain:
    """Derives and caches :class:`EpochMaterial` for a dealt group."""

    def __init__(self, group: GroupConfig):
        if not group.parties:
            raise ConfigError("keychain needs a group with party bundles")
        self.group = group
        base = group.parties[0]
        self._coin0 = base.coin
        self._enc0 = base.enc
        self._coin_shares0 = self._base_shares("coin")
        self._enc_shares0 = self._base_shares("enc")
        self._shoup = group.sig_mode == SIG_MODE_SHOUP
        if self._shoup:
            self._cbc0 = base.cbc_scheme
            self._aba0 = base.aba_scheme
        tag_material = encode(
            (
                self._coin0.public.global_vk,
                self._enc0.public.h,
                list(self._coin_shares0),
                list(self._enc_shares0),
            )
        )
        self._base_tag = hashlib.sha256(tag_material).hexdigest()
        self._cache: Dict[Tuple[int, Tuple[Optional[str], ...]], EpochMaterial] = {}

    def _base_shares(self, kind: str) -> Tuple[int, ...]:
        raw = self.group.raw
        if raw is not None and kind in raw and "shares" in raw[kind]:
            return tuple(int(s) for s in raw[kind]["shares"])
        # A config loaded from one party's secret file only knows that
        # party's own share, which cannot seed a refresh of the whole
        # vector — the trusted-dealer role (paper Sec. 2) extends to
        # epoch derivation.
        raise ConfigError(
            f"group config lacks raw {kind!r} share vectors; epoch material "
            "must be derived where the dealer output is available and "
            "distributed via repro.crypto.config_io"
        )

    # -- derivation -----------------------------------------------------------

    def material(self, epoch: int, roster: Roster) -> EpochMaterial:
        """The material for ``epoch`` under ``roster`` (cached)."""
        if epoch < 0:
            raise ConfigError(f"epoch must be non-negative, got {epoch}")
        if roster.n != self.group.n:
            raise ConfigError(
                f"roster has {roster.n} slots but the group was dealt for "
                f"{self.group.n}"
            )
        key = (epoch, roster.members)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if epoch == 0:
            material = EpochMaterial(
                epoch=0,
                roster_members=roster.members,
                coin=self._coin0,
                coin_shares=self._coin_shares0,
                enc=self._enc0,
                enc_shares=self._enc_shares0,
                cbc=self._cbc0 if self._shoup else None,
                cbc_shares=None,
                aba=self._aba0 if self._shoup else None,
                aba_shares=None,
            )
        else:
            rng = random.Random(
                repr(
                    (
                        "repro.membership.reshare",
                        self._base_tag,
                        epoch,
                        list(roster.members),
                    )
                )
            )
            coin, coin_shares = reshare.refresh_coin(
                self._coin0, self._coin_shares0, rng
            )
            enc, enc_shares = reshare.refresh_enc(self._enc0, self._enc_shares0, rng)
            cbc = aba = None
            cbc_shares = aba_shares = None
            if self._shoup:
                bits = self.group.security.sig_modbits
                cbc, cbc_list = reshare.redeal_shoup(self._cbc0, bits, rng)
                aba, aba_list = reshare.redeal_shoup(self._aba0, bits, rng)
                cbc_shares = tuple(cbc_list)
                aba_shares = tuple(aba_list)
            material = EpochMaterial(
                epoch=epoch,
                roster_members=roster.members,
                coin=coin,
                coin_shares=tuple(coin_shares),
                enc=enc,
                enc_shares=tuple(enc_shares),
                cbc=cbc,
                cbc_shares=cbc_shares,
                aba=aba,
                aba_shares=aba_shares,
            )
        self._cache[key] = material
        return material

    def party_crypto(self, epoch: int, roster: Roster, index0: int) -> PartyCrypto:
        """The epoch-``epoch`` crypto bundle for slot ``index0``.

        Identity material (per-party RSA keys, pairwise MAC keys) is
        stable across epochs — a slot's transport identity does not
        change when its threshold shares rotate — so only the threshold
        schemes and holders are replaced."""
        base = self.group.party(index0)
        if epoch == 0:
            return base
        m = self.material(epoch, roster)
        share_index = index0 + 1
        replacements = dict(
            coin=m.coin,
            coin_holder=m.coin.holder(share_index, m.coin_shares[index0]),
            enc=m.enc,
            enc_holder=m.enc.holder(share_index, m.enc_shares[index0]),
            # Each bundle owns its verdict memo, as at epoch 0; a copied
            # bundle would otherwise share the previous epoch's.
            verifier=ShareVerifier(),
        )
        if self._shoup:
            assert m.cbc is not None and m.cbc_shares is not None
            assert m.aba is not None and m.aba_shares is not None
            replacements.update(
                cbc_scheme=m.cbc,
                cbc_signer=m.cbc.signer(share_index, m.cbc_shares[index0]),
                aba_scheme=m.aba,
                aba_signer=m.aba.signer(share_index, m.aba_shares[index0]),
            )
        return dataclasses.replace(base, **replacements)


__all__ = ["EpochKeychain", "EpochMaterial"]
