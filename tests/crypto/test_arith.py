"""Modular arithmetic: egcd, inverses, CRT, primes, Lagrange, and the
native exponentiation kernel against builtin ``pow``."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CryptoError
from repro.crypto import arith, opcount

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


def _operands(rng, bits):
    """An odd modulus of exactly ``bits`` bits, and bases and exponents at
    the kernel's edges and at full size."""
    m = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    bases = [0, 1, 2, m - 1, m, m + 1, 3 * m + 7, -1, -m - 5,
             rng.randrange(m), rng.getrandbits(2 * bits)]
    exponents = [0, 1, 2, 65537, rng.getrandbits(bits)]
    if bits <= 256:
        exponents.append(rng.getrandbits(3 * bits))
    return m, bases, exponents


@pytest.mark.parametrize("bits", [8, 9, 16, 64, 160, 256, 512, 1024, 2048])
def test_powmod_equals_pow(bits):
    rng = random.Random(bits)
    for _ in range(3 if bits <= 512 else 1):
        m, bases, exponents = _operands(rng, bits)
        for b in bases:
            for e in exponents:
                want = pow(b, e, m)
                assert arith.powmod(b, e, m) == want, (b, e, m)
                assert arith.mexp(b, e, m) == want, (b, e, m)


def test_miller_rabin_moduli_stay_out_of_the_cache():
    arith.powmod(5, 7, 1019)  # one cached modulus
    before = list(arith._moduli)
    rng = random.Random(8)
    assert arith.gen_prime(256, rng).bit_length() == 256
    assert list(arith._moduli) == before


@pytest.mark.parametrize("b,e,m", [
    (3, -1, 1019), (5, -3, 2 ** 61 - 1),  # negative exponents: inverses
    (3, 5, 1024), (7, 2 ** 70 + 1, 10 ** 20),  # even moduli
    (9, 4, 1), (0, 0, 1), (3, 3, 2), (0, 0, 2), (-4, 3, 2),  # below 3
])
def test_mexp_outside_the_kernel_domain_is_builtin(b, e, m):
    assert arith.mexp(b, e, m) == pow(b, e, m)
    assert arith.powmod(b, e, m) == pow(b, e, m)


def test_mexp_negative_exponent_not_invertible_raises_like_pow():
    with pytest.raises(ValueError):
        arith.mexp(4, -1, 10)


def _billed(rng):
    """Run a fixed operand mix through mexp; return it with its results and
    the counter's ``(ops, units_full, units_short)``."""
    calls = []
    for bits in (16, 256, 512, 1024):
        m, bases, exponents = _operands(rng, bits)
        calls += [(b, e, m) for b in bases[:4] for e in exponents]
    calls += [(3, -1, 1019), (3, 5, 1024), (9, 4, 1)]
    with opcount.counting() as c:
        results = [arith.mexp(*call) for call in calls]
    return calls, results, (c.ops, c.units_full, c.units_short)


def test_fallback_path_equals_pow_and_bills_identically(monkeypatch):
    calls, native, native_bill = _billed(random.Random(11))
    monkeypatch.setattr(arith, "_lib", None)
    assert not arith.native()
    calls_fb, fallback, fallback_bill = _billed(random.Random(11))
    assert calls_fb == calls
    assert native == fallback == [pow(*call) for call in calls]
    assert native_bill == fallback_bill
    assert native_bill[0] == len(calls)


def test_modulus_cache_is_bounded_and_stays_correct():
    rng = random.Random(12)
    moduli = [rng.getrandbits(256) | (1 << 255) | 1
              for _ in range(3 * arith.MONT_CACHE)]
    for _ in range(2):
        for m in moduli:
            b, e = rng.randrange(m), rng.getrandbits(256)
            assert arith.mexp(b, e, m) == pow(b, e, m)
            assert len(arith._moduli) <= arith.MONT_CACHE
    if arith.native():
        assert list(arith._moduli) == moduli[-arith.MONT_CACHE:]


def test_threads_on_distinct_moduli():
    # a kernel call is several ctypes calls on shared scratch BIGNUMs;
    # switching threads as often as possible exposes any unguarded step
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    errors = []

    def work(seed):
        rng = random.Random(seed)
        moduli = [rng.getrandbits(512) | (1 << 511) | 1 for _ in range(3)]
        try:
            for i in range(300):
                m = moduli[i % 3]
                b, e = rng.getrandbits(600), rng.getrandbits(160)
                got = arith.mexp(b, e, m)
                if got != pow(b, e, m):
                    errors.append((seed, b, e, m, got))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []


def test_product_mod():
    assert arith.product_mod([2, 3, 4], 5) == 24 % 5
    assert arith.product_mod([], 7) == 1


def test_rng_from_seed_deterministic():
    a = arith.rng_from_seed("x", 1).random()
    b = arith.rng_from_seed("x", 1).random()
    c = arith.rng_from_seed("x", 2).random()
    assert a == b != c
