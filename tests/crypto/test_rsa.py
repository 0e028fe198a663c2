"""Standard RSA-FDH signatures."""

import random

import pytest

from repro.common.errors import CryptoError, InvalidSignature
from repro.crypto import arith, hashing, opcount, rsa

RNG = random.Random(11)
KP = rsa.generate_keypair(256, RNG)


def test_sign_verify_roundtrip():
    sig = KP.sign("d", b"message")
    assert KP.public.verify("d", b"message", sig)


def test_wrong_message_rejected():
    sig = KP.sign("d", b"message")
    assert not KP.public.verify("d", b"other", sig)


def test_wrong_domain_rejected():
    sig = KP.sign("d", b"message")
    assert not KP.public.verify("e", b"message", sig)


def test_wrong_key_rejected():
    other = rsa.generate_keypair(256, random.Random(12))
    sig = KP.sign("d", b"message")
    assert not other.public.verify("d", b"message", sig)


def test_signature_range_checked():
    assert not KP.public.verify("d", b"m", 0)
    assert not KP.public.verify("d", b"m", KP.n)
    assert not KP.public.verify("d", b"m", -5)


def test_check_raises():
    with pytest.raises(InvalidSignature):
        KP.public.check("d", b"m", 123456)


def test_crt_consistent_with_plain_pow():
    x = 0x1234567890ABCDEF
    assert KP.sign_raw(x) == pow(x, KP.d, KP.n)


def test_crt_coefficient_is_derived_once_per_key(monkeypatch):
    assert KP.q_inv == pow(KP.q, -1, KP.p)
    calls = []
    real_invmod = arith.invmod

    def invmod(a, m):
        calls.append((a, m))
        return real_invmod(a, m)

    monkeypatch.setattr(arith, "invmod", invmod)
    rng = random.Random(32)
    edges = [0, 1, KP.p, KP.q, KP.n - 1]
    for x in edges + [rng.randrange(KP.n) for _ in range(200)]:
        assert KP.sign_raw(x) == pow(x, KP.d, KP.n)
    assert calls == []  # the coefficient comes from the key


def test_sign_is_the_raw_operation_on_the_full_domain_hash():
    with opcount.counting() as ops:
        sig = KP.sign("d", b"message")
    assert sig == KP.sign_raw(hashing.fdh_to_zn("d", b"message", KP.n))
    assert sig == pow(hashing.fdh_to_zn("d", b"message", KP.n), KP.d, KP.n)
    # two half-size exponentiations, with the exponents derived once per key
    assert ops.ops == 2
    assert (KP.d_p, KP.d_q) == (KP.d % (KP.p - 1), KP.d % (KP.q - 1))
    assert KP == rsa.RSAKeyPair(n=KP.n, e=KP.e, d=KP.d, p=KP.p, q=KP.q)


def test_keypair_from_primes_validates():
    with pytest.raises(CryptoError):
        rsa.keypair_from_primes(101, 101)  # equal primes
    with pytest.raises(CryptoError):
        rsa.keypair_from_primes(7, 13, e=3)  # gcd(3, phi=72) != 1


def test_generated_modulus_size():
    for bits in (128, 256):
        kp = rsa.generate_keypair(bits, random.Random(bits))
        assert kp.n.bit_length() == bits
        assert kp.public.bits == bits


def test_determinism_from_seed():
    a = rsa.generate_keypair(128, random.Random(99))
    b = rsa.generate_keypair(128, random.Random(99))
    assert a.n == b.n and a.d == b.d
