"""SHA-256-based hashing utilities modelling the random oracles of SINTRA.

The paper uses SHA1 throughout (HMAC, full-domain hashing for RSA
signatures, hashing in the threshold coin).  We substitute SHA-256 (see
DESIGN.md); the choice of hash function does not affect protocol behaviour.

Domain separation: every oracle takes a ``domain`` string that is encoded
into the hash input, so distinct uses of the hash can never collide.

The two TLV framings every full-domain hash runs through, the oracle
seed's ``encode(("repro.oracle", domain, data))`` and the FDH input
``encode((data, counter))``, are built here by byte concatenation (the
domain's part once per domain): the bytes are exactly what
:func:`~repro.common.encoding.encode` produces, so every hash output is
unchanged.  A party's :class:`~repro.crypto.verifier.ShareVerifier`
remembers the verdicts of its recent signature checks, so a repeated
check reaches neither :func:`fdh_to_zn` nor the exponentiation.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from typing import Iterable

from repro.common.encoding import encode
from repro.crypto import arith

_tlv_head = struct.Struct(">BI").pack  # the codec's tag + 4-byte length
_int_head = struct.Struct(">BIB").pack  # tag, magnitude length, sign
_TAG_B, _TAG_I, _TAG_U, _PLUS = b"BIU+"
_PAIR_HEAD = _tlv_head(_TAG_U, 2)


@functools.lru_cache(maxsize=64)
def _oracle_prefix(domain: str) -> bytes:
    """``encode(("repro.oracle", domain, data))`` up to ``data``'s header."""
    return encode(("repro.oracle", domain, b""))[:-5]


def _counted(data: bytes, counter: int) -> bytes:
    """``encode((data, counter))`` for a non-negative ``counter``."""
    if type(data) is not bytes:
        return encode((data, counter))
    size = (counter.bit_length() + 7) >> 3
    return b"".join((
        _PAIR_HEAD, _tlv_head(_TAG_B, len(data)), data,
        _int_head(_TAG_I, size, _PLUS), counter.to_bytes(size, "big"),
    ))


def sha256(data: bytes) -> bytes:
    """Plain SHA-256 digest."""
    return hashlib.sha256(data).digest()


def oracle_bytes(domain: str, data: bytes, length: int) -> bytes:
    """Expandable random oracle: ``length`` bytes derived from ``data``.

    Implemented as SHA-256 in counter mode over the domain-separated input
    ``encode(("repro.oracle", domain, data))``.
    """
    if type(data) is bytes:
        framed = _oracle_prefix(domain) + _tlv_head(_TAG_B, len(data)) + data
    else:
        framed = encode(("repro.oracle", domain, data))
    seed = hashlib.sha256(framed).digest()
    blocks = [
        hashlib.sha256(seed + counter.to_bytes(8, "big")).digest()
        for counter in range(-(-length // 32))
    ]
    return b"".join(blocks)[:length]


def hash_to_int(domain: str, data: bytes, bound: int) -> int:
    """Random-oracle hash of ``data`` into ``[0, bound)``.

    Over-samples by 128 bits and reduces, so the output distribution is
    statistically close to uniform.
    """
    nbytes = (bound.bit_length() + 7) // 8 + 16
    return int.from_bytes(oracle_bytes(domain, data, nbytes), "big") % bound


def hash_to_zq(domain: str, data: bytes, q: int) -> int:
    """Random-oracle hash into the field Z_q."""
    return hash_to_int(domain, data, q)


def hash_to_group(domain: str, data: bytes, p: int, q: int) -> int:
    """Random-oracle hash into the order-``q`` subgroup of Z_p*.

    Maps the input to a random element of Z_p* and raises it to
    ``(p-1)/q``, retrying (with a counter) in the negligible case that the
    result is the identity.  This is the oracle H' of the CKS threshold-coin
    scheme: the "name" of a coin is mapped to a group element of unknown
    discrete logarithm.
    """
    cofactor = (p - 1) // q
    counter = 0
    while True:
        x = hash_to_int(domain, _counted(data, counter), p - 2) + 2
        g = arith.mexp(x, cofactor, p)
        if g != 1:
            return g
        counter += 1


def fdh_to_zn(domain: str, data: bytes, n: int) -> int:
    """Full-domain hash into Z_n* (for RSA-FDH signatures).

    Retries with a counter until the output is coprime to ``n``; for an
    honest modulus a retry essentially never happens.  The hash input is
    ``encode((data, counter))``.
    """
    counter = 0
    while True:
        x = hash_to_int(domain, _counted(data, counter), n - 2) + 2
        if math.gcd(x, n) == 1:
            return x
        counter += 1


def keystream(key: bytes, length: int) -> bytes:
    """Symmetric keystream (SHA-256 in counter mode).

    Stands in for the MARS block cipher used by the paper for bulk
    encryption inside the threshold cryptosystem.
    """
    return oracle_bytes("keystream", key, length)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError("xor_bytes requires equal lengths")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def challenge(domain: str, parts: Iterable[object], bound: int) -> int:
    """Fiat-Shamir challenge derived from a transcript of values."""
    return hash_to_int(domain, encode(tuple(parts)), bound)
