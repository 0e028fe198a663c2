"""Proactive share refresh: stable group keys, provably stale old shares.

The mobile-adversary property under test: shares (and share verification
keys) rotate every epoch while the *group* keys — the coin's ``g^x``,
TDH2's ``h``, the Shoup RSA key — stay fixed, so artifacts produced under
an old epoch (combined signatures, ciphertexts, coin values) remain
valid, but an old epoch's *shares* fail verification under the new epoch
and cannot be combined with it.
"""

import random

import pytest

from repro.crypto import arith, reshare
from repro.membership.epoch import EpochKeychain
from repro.membership.roster import MembershipChange, Roster

pytestmark = pytest.mark.membership

NAME = b"round-7-coin"
MSG = b"threshold message"


def test_zero_shares_share_nothing():
    rng = random.Random(7)
    q = 2 ** 61 - 1  # a prime field large enough for exactness
    shares = reshare.zero_shares(5, 3, q, rng)
    assert len(shares) == 5
    # Lagrange-interpolate any k shares at 0: the refresh polynomial's
    # secret is identically zero.
    for subset in ((1, 2, 3), (2, 4, 5), (1, 3, 5)):
        total = 0
        for i in subset:
            num, den = 1, 1
            for j in subset:
                if j != i:
                    num = (num * (-j)) % q
                    den = (den * (i - j)) % q
            total = (total + shares[i - 1] * num * arith.invmod(den % q, q)) % q
        assert total == 0


def test_coin_refresh_rotates_shares_not_the_group_key(group4):
    coin = group4.parties[0].coin
    shares = tuple(int(s) for s in group4.raw["coin"]["shares"])
    coin2, shares2 = reshare.refresh_coin(coin, shares, random.Random(11))

    assert coin2.public.global_vk == coin.public.global_vk
    assert coin2.public.verification_keys != coin.public.verification_keys
    assert tuple(shares2) != shares

    old = {i: coin.holder(i, shares[i - 1]).release(NAME)
           for i in range(1, coin.k + 1)}
    new = {i: coin2.holder(i, shares2[i - 1]).release(NAME)
           for i in range(1, coin.k + 1)}
    # The coin VALUE is an epoch invariant (same g^x)...
    assert coin.assemble_bit(NAME, old) == coin2.assemble_bit(NAME, new)
    # ...but each epoch only accepts its own shares.
    for i, share in old.items():
        assert coin.verify_share(NAME, share)
        assert not coin2.verify_share(NAME, share)
    for i, share in new.items():
        assert coin2.verify_share(NAME, share)
        assert not coin.verify_share(NAME, share)


def test_enc_refresh_keeps_old_ciphertexts_decryptable(group4):
    enc = group4.parties[0].enc
    shares = tuple(int(s) for s in group4.raw["enc"]["shares"])
    enc2, shares2 = reshare.refresh_enc(enc, shares, random.Random(13))

    assert enc2.public.h == enc.public.h
    assert enc2.public.gbar == enc.public.gbar
    assert enc2.public.verification_keys != enc.public.verification_keys

    # A ciphertext from before the refresh decrypts under the new shares:
    # external encryptors never learn that a refresh happened.
    ctxt = enc.encrypt(MSG, b"label", random.Random(17))
    new_shares = {
        i: enc2.holder(i, shares2[i - 1]).decryption_share(ctxt)
        for i in range(1, enc.k + 1)
    }
    assert enc2.combine(ctxt, new_shares) == MSG
    # Old decryption shares are rejected by the refreshed verifier.
    old_share = enc.holder(1, shares[0]).decryption_share(ctxt)
    assert enc.verify_share(ctxt, old_share)
    assert not enc2.verify_share(ctxt, old_share)


def test_shoup_redeal_same_key_new_polynomial(group4_shoup):
    group = group4_shoup
    scheme = group.parties[0].cbc_scheme
    shares = [int(s) for s in group.raw["cbc"]["secrets"]]
    fresh, shares2 = reshare.redeal_shoup(
        scheme, group.security.sig_modbits, random.Random(19))

    assert fresh.public.modulus == scheme.public.modulus
    assert shares2 != shares

    # A signature combined before the refresh verifies forever (this is
    # what keeps old checkpoint certificates adoptable).
    old_sig = scheme.combine(MSG, {
        i: scheme.signer(i, shares[i - 1]).sign_share(MSG)
        for i in range(1, scheme.k + 1)
    })
    assert scheme.verify(MSG, old_sig)
    assert fresh.verify(MSG, old_sig)

    # Old shares fail under the fresh verification base, and vice versa.
    old_share = scheme.signer(1, shares[0]).sign_share(MSG)
    new_share = fresh.signer(1, shares2[0]).sign_share(MSG)
    assert scheme.verify_share(MSG, old_share)
    assert not fresh.verify_share(MSG, old_share)
    assert fresh.verify_share(MSG, new_share)
    assert not scheme.verify_share(MSG, new_share)

    # The fresh polynomial still combines to a valid signature.
    new_sig = fresh.combine(MSG, {
        i: fresh.signer(i, shares2[i - 1]).sign_share(MSG)
        for i in range(1, fresh.k + 1)
    })
    assert fresh.verify(MSG, new_sig)


def test_keychain_is_deterministic_and_epoch_separated(group4):
    roster = Roster.initial(4)
    r1 = roster.apply(MembershipChange("refresh"), t=1)
    a, b = EpochKeychain(group4), EpochKeychain(group4)

    m1a = a.material(1, r1)
    m1b = b.material(1, r1)
    # Two keychains over the same dealt group derive identical epochs —
    # this is what lets every replica refresh without a dealer round.
    assert m1a.coin_shares == m1b.coin_shares
    assert m1a.enc_shares == m1b.enc_shares
    assert (m1a.coin.public.verification_keys
            == m1b.coin.public.verification_keys)

    # Different epochs (and different rosters) derive different shares.
    r2 = r1.apply(MembershipChange("refresh"), t=1)
    m2 = a.material(2, r2)
    assert m2.coin_shares != m1a.coin_shares
    r1swap = roster.apply(MembershipChange("replace", slot=0, member="x"), t=1)
    assert a.material(1, r1swap).coin_shares != m1a.coin_shares

    # Identity material survives the swap; only threshold holders rotate.
    base = group4.party(2)
    rotated = a.party_crypto(1, r1, 2)
    assert rotated.rsa is base.rsa
    assert rotated.mac_keys == base.mac_keys
    assert rotated.party_public_keys == base.party_public_keys
    assert rotated.coin is not base.coin


def test_keychain_rejects_bad_inputs(group4):
    from repro.common.errors import ConfigError

    keychain = EpochKeychain(group4)
    with pytest.raises(ConfigError):
        keychain.material(-1, Roster.initial(4))
    with pytest.raises(ConfigError):
        keychain.material(1, Roster.initial(7))


def test_a_stale_share_is_rejected_after_an_epoch_change(group4):
    """A share that verified under epoch 0 must be rejected by the epoch-1
    bundle of the same slot."""
    keychain = EpochKeychain(group4)
    r1 = Roster.initial(4).apply(MembershipChange("refresh"), t=1)
    p0 = keychain.party_crypto(0, Roster.initial(4), 2)
    p1 = keychain.party_crypto(1, r1, 2)
    evicted = keychain.party_crypto(0, Roster.initial(4), 3)
    ctxt = p0.enc.encrypt(b"carried across the barrier", b"label", random.Random(5))
    stale_coin = evicted.coin_holder.release(NAME)
    stale_dec = evicted.enc_holder.decryption_share(ctxt)

    assert p0.coin.verify_share(NAME, stale_coin)
    assert p0.enc.verify_share(ctxt, stale_dec)
    assert not p1.coin.verify_share(NAME, stale_coin)
    assert not p1.enc.verify_share(ctxt, stale_dec)
