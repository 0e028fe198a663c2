"""Shamir secret sharing, in the two flavours SINTRA's schemes need.

* Field sharing over Z_q (prime ``q``): used by the threshold coin and the
  TDH2 threshold cryptosystem.  Reconstruction uses ordinary Lagrange
  interpolation (often "in the exponent" of a group element).

* Integer sharing modulo a *secret* modulus ``m = p'q'``: used by Shoup's
  RSA threshold signatures, where the shared secret is the RSA private
  exponent and nobody may learn ``m``.  Reconstruction avoids inverses via
  the Delta-scaled integer Lagrange coefficients (``Delta = n!``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.common.errors import CryptoError
from repro.crypto import arith


@dataclass(frozen=True)
class ShareSet:
    """Shares ``{i: f(i)}`` for parties ``1..n`` of a degree-``k-1`` polynomial."""

    n: int
    k: int
    modulus: int
    shares: Dict[int, int]
    secret: int  # f(0); kept by the dealer only


def share_secret(
    secret: int, n: int, k: int, modulus: int, rng: random.Random
) -> ShareSet:
    """Split ``secret`` into ``n`` shares, any ``k`` of which reconstruct it.

    The polynomial has degree ``k - 1`` with constant term ``secret``; all
    arithmetic is modulo ``modulus`` (which may be the secret RSA modulus
    ``m`` — the dealer knows it even when the parties must not).
    """
    if not 1 <= k <= n:
        raise CryptoError(f"invalid threshold k={k} for n={n}")
    if not 0 <= secret < modulus:
        raise CryptoError("secret out of range")
    coeffs: List[int] = [secret] + [rng.randrange(modulus) for _ in range(k - 1)]
    shares = {i: arith.poly_eval(coeffs, i, modulus) for i in range(1, n + 1)}
    return ShareSet(n=n, k=k, modulus=modulus, shares=shares, secret=secret)


def reconstruct_field(shares: Dict[int, int], k: int, q: int) -> int:
    """Reconstruct ``f(0)`` over the prime field Z_q from ``k`` shares."""
    if len(shares) < k:
        raise CryptoError(f"need {k} shares, got {len(shares)}")
    indices = sorted(shares)[:k]
    lam = arith.field_lagrange_at_zero(indices, q)
    return sum(lam[j] * shares[j] for j in indices) % q


def reconstruct_in_exponent(
    shares: Dict[int, int], k: int, p: int, q: int
) -> int:
    """Combine group-element shares ``{j: g^{f(j)}}`` into ``g^{f(0)}``.

    This is Lagrange interpolation in the exponent: the workhorse of the
    threshold coin (combining ``g~^{x_j}`` into ``g~^{x_0}``) and of TDH2
    decryption (combining ``u^{x_j}`` into ``h^r``).
    """
    if len(shares) < k:
        raise CryptoError(f"need {k} shares, got {len(shares)}")
    indices = sorted(shares)[:k]
    lam = arith.field_lagrange_at_zero(indices, q)
    acc = 1
    for j in indices:
        acc = (acc * arith.mexp(shares[j], lam[j], p)) % p
    return acc


def integer_lagrange(indices: Sequence[int], n: int) -> Dict[int, int]:
    """Delta-scaled integer Lagrange coefficients, ``Delta = n!``.

    Returns ``{j: lambda_j}`` with
    ``Delta * f(0) = sum_j lambda_j * f(j)`` over the integers.
    """
    return arith.integer_lagrange_at_zero(indices, arith.factorial(n))
