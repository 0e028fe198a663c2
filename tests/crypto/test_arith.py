"""Modular arithmetic: egcd, inverses, CRT, primes, Lagrange."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CryptoError
from repro.crypto import arith

RNG = random.Random(7)
SMALL_PRIMES = [101, 257, 7919, 104729]


@given(st.integers(min_value=-(10 ** 18), max_value=10 ** 18),
       st.integers(min_value=-(10 ** 18), max_value=10 ** 18))
def test_egcd_bezout(a, b):
    g, x, y = arith.egcd(a, b)
    assert a * x + b * y == g
    if a or b:
        assert g > 0
        assert a % g == 0 and b % g == 0


@given(st.integers(min_value=1, max_value=10 ** 12),
       st.sampled_from(SMALL_PRIMES))
def test_invmod_prime(a, p):
    if a % p == 0:
        with pytest.raises(CryptoError):
            arith.invmod(a, p)
    else:
        assert (a * arith.invmod(a, p)) % p == 1


@given(st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
       st.integers(min_value=2, max_value=10 ** 30))
def test_invmod_agrees_with_egcd(a, m):
    g, x, _ = arith.egcd(a % m, m)
    if g != 1:
        with pytest.raises(CryptoError):
            arith.invmod(a, m)
    else:
        assert arith.invmod(a, m) == x % m


def test_invmod_composite():
    assert (7 * arith.invmod(7, 40)) % 40 == 1
    with pytest.raises(CryptoError):
        arith.invmod(10, 40)  # gcd != 1


@given(st.integers(min_value=0, max_value=100), st.integers(min_value=0, max_value=256))
def test_crt_pair(rp_seed, rq_seed):
    p, q = 101, 257
    r_p, r_q = rp_seed % p, rq_seed % q
    x = arith.crt_pair(r_p, p, r_q, q, arith.invmod(q, p))
    assert 0 <= x < p * q
    assert x % p == r_p and x % q == r_q


def test_miller_rabin_known_values():
    rng = random.Random(1)
    for p in (2, 3, 5, 104729, 2 ** 127 - 1):
        assert arith.is_probable_prime(p, rng)
    for c in (0, 1, 4, 561, 1105, 6601, 2 ** 127):  # incl. Carmichael numbers
        assert not arith.is_probable_prime(c, rng)


def test_gen_prime_has_requested_size():
    rng = random.Random(2)
    for bits in (16, 32, 64, 128):
        p = arith.gen_prime(bits, rng)
        assert p.bit_length() == bits
        assert arith.is_probable_prime(p, rng)


def test_gen_safe_prime():
    rng = random.Random(3)
    p = arith.gen_safe_prime(32, rng)
    assert arith.is_probable_prime(p, rng)
    assert arith.is_probable_prime((p - 1) // 2, rng)


def test_next_prime():
    rng = random.Random(4)
    assert arith.next_prime(1, rng) == 2
    assert arith.next_prime(13, rng) == 17
    assert arith.next_prime(65536, rng) == 65537


@given(st.integers(min_value=2, max_value=6), st.data())
def test_field_lagrange_interpolates(k, data):
    """Any k shares of a degree-(k-1) polynomial recover f(0)."""
    q = 104729
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    coeffs = [rng.randrange(q) for _ in range(k)]
    indices = data.draw(
        st.lists(st.integers(1, 20), min_size=k, max_size=k, unique=True)
    )
    lam = arith.field_lagrange_at_zero(indices, q)
    total = sum(lam[j] * arith.poly_eval(coeffs, j, q) for j in indices) % q
    assert total == coeffs[0]


@given(st.integers(min_value=2, max_value=5), st.data())
def test_integer_lagrange_delta_scaled(k, data):
    """Delta-scaled integer interpolation: Delta*f(0) = sum lambda_j f(j)."""
    n = 7
    delta = arith.factorial(n)
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    coeffs = [rng.randrange(10 ** 9) for _ in range(k)]
    indices = data.draw(
        st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)
    )
    lam = arith.integer_lagrange_at_zero(indices, delta)
    total = sum(lam[j] * arith.poly_eval(coeffs, j, 10 ** 30) for j in indices)
    assert total == delta * coeffs[0]


def test_mexp_matches_pow():
    assert arith.mexp(3, 100, 1019) == pow(3, 100, 1019)
    with pytest.raises(CryptoError):
        arith.mexp(2, 2, 0)


def test_product_mod():
    assert arith.product_mod([2, 3, 4], 5) == 24 % 5
    assert arith.product_mod([], 7) == 1


def test_rng_from_seed_deterministic():
    a = arith.rng_from_seed("x", 1).random()
    b = arith.rng_from_seed("x", 1).random()
    c = arith.rng_from_seed("x", 2).random()
    assert a == b != c
