"""TDH2 threshold encryption: round trips, CCA armour, share robustness."""

import itertools
import random

import pytest

from repro.common.encoding import decode, encode
from repro.common.errors import CryptoError, InvalidCiphertext, InvalidShare
from repro.crypto.params import get_dl_group
from repro.crypto.threshold_enc import Ciphertext, TDH2Scheme

N_PARTIES, K, T = 4, 2, 1
MSG = b"attack at dawn"
LABEL = b"channel-1"


@pytest.fixture(scope="module")
def enc_setup():
    group = get_dl_group(256)
    scheme, secrets = TDH2Scheme.deal(
        N_PARTIES, K, T, group, random.Random(4), "test.enc"
    )
    holders = [scheme.holder(i + 1, secrets[i]) for i in range(N_PARTIES)]
    return scheme, holders


def _ctxt(scheme, msg=MSG, label=LABEL, seed=9):
    return scheme.encrypt(msg, label, random.Random(seed))


def test_encrypt_decrypt_roundtrip(enc_setup):
    scheme, holders = enc_setup
    ctxt = _ctxt(scheme)
    assert scheme.check_ciphertext(ctxt)
    shares = {h.index: h.decryption_share(ctxt) for h in holders[:K]}
    assert scheme.combine(ctxt, shares) == MSG


def test_any_quorum_decrypts(enc_setup):
    scheme, holders = enc_setup
    ctxt = _ctxt(scheme)
    all_shares = {h.index: h.decryption_share(ctxt) for h in holders}
    for subset in itertools.combinations(all_shares, K):
        assert scheme.combine(ctxt, {i: all_shares[i] for i in subset}) == MSG


def test_ciphertext_serialization_roundtrip(enc_setup):
    scheme, _ = enc_setup
    ctxt = _ctxt(scheme)
    again = Ciphertext.from_bytes(ctxt.to_bytes())
    assert again == ctxt


def test_malformed_ciphertext_bytes():
    with pytest.raises(InvalidCiphertext):
        Ciphertext.from_bytes(b"junk")
    with pytest.raises(InvalidCiphertext):
        Ciphertext.from_bytes(encode((1, 2, 3)))


def test_tampered_ciphertext_rejected(enc_setup):
    """Flipping payload bits invalidates the NIZK — the CCA2 property."""
    scheme, holders = enc_setup
    ctxt = _ctxt(scheme)
    tampered = Ciphertext(
        c=bytes([ctxt.c[0] ^ 1]) + ctxt.c[1:],
        label=ctxt.label, u=ctxt.u, ubar=ctxt.ubar, e=ctxt.e, f=ctxt.f,
    )
    assert not scheme.check_ciphertext(tampered)
    with pytest.raises(InvalidCiphertext):
        holders[0].decryption_share(tampered)
    with pytest.raises(InvalidCiphertext):
        scheme.combine(tampered, {})


def test_label_is_bound(enc_setup):
    scheme, _ = enc_setup
    ctxt = _ctxt(scheme)
    relabeled = Ciphertext(
        c=ctxt.c, label=b"other", u=ctxt.u, ubar=ctxt.ubar, e=ctxt.e, f=ctxt.f
    )
    assert not scheme.check_ciphertext(relabeled)


def test_share_verification(enc_setup):
    scheme, holders = enc_setup
    ctxt = _ctxt(scheme)
    share = holders[0].decryption_share(ctxt)
    assert scheme.verify_share(ctxt, share)
    other = _ctxt(scheme, msg=b"different", seed=10)
    assert not scheme.verify_share(other, share)


def test_forged_share_rejected(enc_setup):
    scheme, holders = enc_setup
    ctxt = _ctxt(scheme)
    index, u_i, c, z = decode(holders[0].decryption_share(ctxt))
    grp = scheme.public.group
    forged = encode((index, (u_i * grp.g) % grp.p, c, z))
    assert not scheme.verify_share(ctxt, forged)


def test_malformed_share(enc_setup):
    scheme, holders = enc_setup
    ctxt = _ctxt(scheme)
    index, u_i, c, z = decode(holders[0].decryption_share(ctxt))
    q = scheme.public.group.q
    for bad in (
        b"junk",
        encode((index, u_i)),
        encode((index, u_i, c, z, z)),  # one encoding only
        encode((index, u_i, b"c", z)),
        encode((0, u_i, c, z)),
        encode((index, 0, c, z)),
        encode((index, u_i, q, z)),
        encode((index, u_i, c, q)),
    ):
        assert not scheme.verify_share(ctxt, bad)


def test_too_few_shares(enc_setup):
    scheme, holders = enc_setup
    ctxt = _ctxt(scheme)
    with pytest.raises(CryptoError):
        scheme.combine(ctxt, {1: holders[0].decryption_share(ctxt)})


def test_mislabeled_share_rejected(enc_setup):
    scheme, holders = enc_setup
    ctxt = _ctxt(scheme)
    shares = {h.index: h.decryption_share(ctxt) for h in holders[:K]}
    shares[1] = shares[2]
    with pytest.raises(InvalidShare):
        scheme.combine(ctxt, shares)


def test_empty_and_long_messages(enc_setup):
    scheme, holders = enc_setup
    for msg in (b"", b"x" * 5000):
        ctxt = _ctxt(scheme, msg=msg, seed=len(msg))
        shares = {h.index: h.decryption_share(ctxt) for h in holders[:K]}
        assert scheme.combine(ctxt, shares) == msg


def test_distinct_randomness_distinct_ciphertexts(enc_setup):
    scheme, _ = enc_setup
    a = _ctxt(scheme, seed=1)
    b = _ctxt(scheme, seed=2)
    assert a.c != b.c or a.u != b.u
