"""Modular-arithmetic toolbox used by every threshold scheme.

All modular exponentiations inside the crypto layer go through :func:`mexp`
so the simulator's CPU cost model (see ``repro.net.costmodel``) can account
for public-key work performed while handling a message.

The exponentiation itself runs on one native kernel, :func:`powmod`:
OpenSSL's ``BN_mod_exp_mont``, bound with :mod:`ctypes` through the
``libcrypto`` that CPython's own ``_hashlib`` already links, so nothing
is installed.  Builtin ``pow`` is the only other path; it runs where the
symbols are missing or an operand is outside the kernel's domain, and
every result equals builtin ``pow``'s.
"""

from __future__ import annotations

import ctypes
import importlib
import math
import random
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

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
    return powmod(base, exponent, modulus)


# ---------------------------------------------------------------------------
# The native kernel
# ---------------------------------------------------------------------------

#: process-wide bound on cached per-modulus Montgomery contexts
MONT_CACHE = 64

_P = ctypes.c_void_p
_SIGNATURES: Tuple[Tuple[str, Any, Tuple[Any, ...]], ...] = (
    ("BN_new", _P, ()),
    ("BN_free", None, (_P,)),
    ("BN_CTX_new", _P, ()),
    ("BN_MONT_CTX_new", _P, ()),
    ("BN_MONT_CTX_set", ctypes.c_int, (_P, _P, _P)),
    ("BN_MONT_CTX_free", None, (_P,)),
    ("BN_bin2bn", _P, (ctypes.c_char_p, ctypes.c_int, _P)),
    ("BN_bn2binpad", ctypes.c_int, (_P, _P, ctypes.c_int)),
    ("BN_mod_exp_mont", ctypes.c_int, (_P, _P, _P, _P, _P, _P)),
)


def _bind() -> Optional[ctypes.PyDLL]:
    """The libcrypto CPython's ``_hashlib`` loaded, with the kernel's
    symbols typed; ``None`` where it or one of them is missing.

    ``PyDLL`` keeps the GIL across a call, as builtin ``pow`` does.
    """
    try:
        path = importlib.import_module("_hashlib").__file__
        if path is None:
            return None
        lib = ctypes.PyDLL(path)
        for name, restype, argtypes in _SIGNATURES:
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
    except (ImportError, OSError, AttributeError):
        return None
    return lib


class _Modulus:
    """A cached modulus: byte size, ``BIGNUM``, Montgomery context and
    output buffer."""

    __slots__ = ("size", "bn", "mont", "out")

    def __init__(self, size: int, bn: Optional[int], mont: Optional[int]):
        self.size = size
        self.bn = bn
        self.mont = mont
        self.out = ctypes.create_string_buffer(size)


_lib = _bind()
# One BN_CTX and four scratch BIGNUMs (base, exponent, result, one-off
# modulus), used under _lock: a kernel call is several ctypes calls, and
# another thread may run between any two of them.
_lock = threading.Lock()
_ctx: Optional[int] = None
_base = _exp = _res = _mod = None
_moduli: "OrderedDict[int, _Modulus]" = OrderedDict()
if _lib is not None:
    _ctx = _lib.BN_CTX_new()
    _base, _exp, _res, _mod = (_lib.BN_new() for _ in range(4))
    if not (_ctx and _base and _exp and _res and _mod):
        _lib = None


def native() -> bool:
    """Is the native kernel bound?"""
    return _lib is not None


def _free(lib: ctypes.PyDLL, entry: _Modulus) -> None:
    lib.BN_MONT_CTX_free(entry.mont)
    lib.BN_free(entry.bn)


def _cached(lib: ctypes.PyDLL, modulus: int) -> Optional[_Modulus]:
    """The modulus's cache entry, built (and the least recent one evicted
    and freed) on a miss; ``None`` if OpenSSL refuses it."""
    entry = _moduli.get(modulus)
    if entry is not None:
        _moduli.move_to_end(modulus)
        return entry
    size = (modulus.bit_length() + 7) // 8
    entry = _Modulus(size, lib.BN_bin2bn(modulus.to_bytes(size, "big"), size, None),
                     lib.BN_MONT_CTX_new())
    if not (entry.bn and entry.mont
            and lib.BN_MONT_CTX_set(entry.mont, entry.bn, _ctx)):
        _free(lib, entry)
        return None
    _moduli[modulus] = entry
    if len(_moduli) > MONT_CACHE:
        _free(lib, _moduli.popitem(last=False)[1])
    return entry


def _kernel(lib: ctypes.PyDLL, base: int, exponent: int, modulus: int,
            cache: bool) -> Optional[int]:
    """``BN_mod_exp_mont``; ``None`` when a BN call fails."""
    with _lock:
        if cache:
            entry = _cached(lib, modulus)
            if entry is None:
                return None
        else:
            size = (modulus.bit_length() + 7) // 8
            entry = _Modulus(size, _mod, None)
            if not lib.BN_bin2bn(modulus.to_bytes(size, "big"), size, _mod):
                return None
        size = entry.size
        exp = exponent.to_bytes((exponent.bit_length() + 7) // 8, "big")
        if not (lib.BN_bin2bn(base.to_bytes(size, "big"), size, _base)
                and lib.BN_bin2bn(exp, len(exp), _exp)
                and lib.BN_mod_exp_mont(_res, _base, _exp, entry.bn, _ctx,
                                        entry.mont)
                and lib.BN_bn2binpad(_res, entry.out, size) == size):
            return None
        return int.from_bytes(entry.out.raw, "big")


def _pow(base: int, exponent: int, modulus: int, cache: bool) -> int:
    lib = _lib
    if lib is None or exponent < 0 or modulus < 3 or not modulus & 1:
        return pow(base, exponent, modulus)
    if not 0 <= base < modulus:
        base %= modulus
    result = _kernel(lib, base, exponent, modulus, cache)
    return pow(base, exponent, modulus) if result is None else result


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)`` on the native kernel, unbilled.

    Builtin ``pow`` runs instead when the kernel is not bound, the
    exponent is negative, the modulus is even or below 3, or a BN call
    fails.  The modulus's Montgomery context is cached (:data:`MONT_CACHE`
    moduli, least recently used evicted): the moduli of a dealt group
    recur on every call.
    """
    return _pow(base, exponent, modulus, True)


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
        x = _pow(a, d, n, False)  # one-off modulus: keep it out of the cache
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
