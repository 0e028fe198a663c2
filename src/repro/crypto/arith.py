"""Modular-arithmetic toolbox used by every threshold scheme.

All modular exponentiations inside the crypto layer go through :func:`mexp`
so the simulator's CPU cost model (see ``repro.net.costmodel``) can account
for public-key work performed while handling a message.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.common.errors import CryptoError
from repro.crypto import opcount

_SMALL_PRIMES: Tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


def mexp(base: int, exponent: int, modulus: int) -> int:
    """Modular exponentiation with cost accounting.

    Equivalent to ``pow(base, exponent, modulus)`` but records the operation
    with :mod:`repro.crypto.opcount` so simulated experiments can charge CPU
    time for it.
    """
    if modulus <= 0:
        raise CryptoError("modulus must be positive")
    opcount.record(modulus.bit_length(), abs(exponent).bit_length())
    return pow(base, exponent, modulus)


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclid: returns ``(g, x, y)`` with ``a*x + b*y == g``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:  # normalize: the gcd is non-negative
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def invmod(a: int, m: int) -> int:
    """Multiplicative inverse of ``a`` modulo ``m``."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise CryptoError(f"{a} is not invertible modulo {m}") from None


def crt_pair(r_p: int, p: int, r_q: int, q: int, q_inv: int) -> int:
    """Chinese remaindering for two coprime moduli.

    Returns the unique ``x`` modulo ``p*q`` with ``x = r_p (mod p)`` and
    ``x = r_q (mod q)``, given the coefficient ``q_inv = q^-1 mod p``.
    Used by the RSA-CRT signing fast path, whose key derives ``q_inv``
    once.
    """
    h = (q_inv * (r_p - r_q)) % p
    return (r_q + h * q) % (p * q)


def is_probable_prime(n: int, rng: random.Random, rounds: int = 40) -> bool:
    """Miller-Rabin primality test with ``rounds`` random bases."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def gen_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime of exactly ``bits`` bits."""
    if bits < 3:
        raise CryptoError("prime size too small")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng):
            return candidate


def gen_safe_prime(bits: int, rng: random.Random) -> int:
    """Generate a safe prime ``p = 2q + 1`` of exactly ``bits`` bits.

    Slow in pure Python for large sizes; the parameter presets in
    ``repro.crypto.params`` carry pre-generated safe primes for 256-1024-bit
    RSA moduli.
    """
    while True:
        q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        if not is_probable_prime(q, rng, rounds=8):
            continue
        p = 2 * q + 1
        if is_probable_prime(p, rng) and is_probable_prime(q, rng):
            return p


def next_prime(n: int, rng: random.Random) -> int:
    """Smallest prime strictly greater than ``n``."""
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_probable_prime(candidate, rng):
        candidate += 2
    return candidate


def factorial(n: int) -> int:
    """``n!`` — the Delta constant of Shoup's threshold RSA scheme."""
    return math.factorial(n)


def field_lagrange_at_zero(indices: Sequence[int], q: int) -> Dict[int, int]:
    """Lagrange coefficients at x=0 over the prime field Z_q.

    ``indices`` are the distinct share indices (1-based).  Returns a map
    ``{j: lambda_j}`` such that ``f(0) = sum_j lambda_j * f(j) (mod q)`` for
    any polynomial ``f`` of degree ``< len(indices)``.
    """
    coeffs: Dict[int, int] = {}
    for j in indices:
        num = 1
        den = 1
        for jj in indices:
            if jj == j:
                continue
            num = (num * (-jj)) % q
            den = (den * (j - jj)) % q
        coeffs[j] = (num * invmod(den, q)) % q
    return coeffs


def integer_lagrange_at_zero(indices: Sequence[int], delta: int) -> Dict[int, int]:
    """Delta-scaled integer Lagrange coefficients at x=0.

    For Shoup's RSA threshold scheme the share modulus is secret, so
    interpolation must avoid modular inverses.  With ``delta = n!`` the
    scaled coefficients ``lambda_j = delta * prod_{j' != j} j' / (j' - j)``
    are integers, and ``delta * f(0) = sum_j lambda_j * f(j)`` over the
    integers (hence modulo anything).
    """
    coeffs: Dict[int, int] = {}
    for j in indices:
        num = delta
        den = 1
        for jj in indices:
            if jj == j:
                continue
            num *= -jj
            den *= j - jj
        if num % den != 0:
            raise CryptoError("delta too small for integer Lagrange coefficients")
        coeffs[j] = num // den
    return coeffs


def product_mod(values: Iterable[int], modulus: int) -> int:
    """Product of ``values`` modulo ``modulus``."""
    acc = 1
    for v in values:
        acc = (acc * v) % modulus
    return acc


def rng_from_seed(*seed_parts: object) -> random.Random:
    """Deterministic :class:`random.Random` derived from arbitrary parts.

    Used for reproducible key generation and experiment workloads.
    """
    return random.Random(repr(seed_parts))


def poly_eval(coeffs: List[int], x: int, modulus: int) -> int:
    """Evaluate a polynomial given by ``coeffs`` (low-order first) at ``x``."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc
