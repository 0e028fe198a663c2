"""Property-based round-trip tests for the canonical encoding and wire
message format.

These are the guarantees the ``mutate`` intrusion strategy
(:class:`~repro.adversary.strategies.MutateAdversary`) leans on: random
TLV payloads survive an encode→decode round trip unchanged, while
truncated or bit-flipped buffers raise
:class:`~repro.common.errors.EncodingError` (and, one layer up,
:class:`~repro.common.errors.TransportError`) instead of crashing or
silently mis-parsing.  The payload generator is the strategy's own.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.strategies import mutate_value, random_value
from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError, TransportError
from repro.net.message import pack_body, unpack_body

CASES = 200


def _values(label: str, count: int = CASES):
    rng = random.Random(label)
    return [random_value(rng, depth=3) for _ in range(count)]


def test_random_values_round_trip():
    for value in _values("round-trip"):
        assert decode(encode(value)) == value


def test_round_trip_preserves_container_types():
    assert decode(encode((1, [2, (3,)]))) == (1, [2, (3,)])
    assert isinstance(decode(encode([0])), list)
    assert isinstance(decode(encode((0,))), tuple)


def test_mutated_values_still_round_trip():
    """Structural mutations stay in the encodable domain (the strategy
    must produce *well-formed* garbage to get past the link layer)."""
    rng = random.Random("mutate")
    for value in _values("mutate-base", 100):
        mutated = mutate_value(rng, value)
        assert decode(encode(mutated)) == mutated


def test_every_strict_prefix_raises():
    for value in _values("prefix", 40):
        blob = encode(value)
        for cut in range(len(blob)):
            with pytest.raises(EncodingError):
                decode(blob[:cut])


def test_trailing_garbage_raises():
    for value in _values("trailing", 40):
        with pytest.raises(EncodingError):
            decode(encode(value) + b"\x00")


def test_bit_flips_never_crash():
    """A single flipped bit either raises EncodingError or decodes to
    some value — never any other exception."""
    rng = random.Random("bitflip")
    for value in _values("bitflip-base", 60):
        blob = bytearray(encode(value))
        if not blob:
            continue
        pos = rng.randrange(len(blob))
        blob[pos] ^= 1 << rng.randrange(8)
        try:
            decode(bytes(blob))
        except EncodingError:
            pass


def test_bodies_round_trip_and_reject_corruption():
    rng = random.Random("bodies")
    for k, payload in enumerate(_values("body-payloads", 60)):
        body = pack_body(f"pid.{k}", "mt", payload)
        msg = unpack_body(k % 4, body)
        assert (msg.sender, msg.pid, msg.mtype) == (k % 4, f"pid.{k}", "mt")
        assert msg.payload == payload
        with pytest.raises(TransportError):
            unpack_body(0, body[: rng.randrange(len(body))])
        flipped = bytearray(body)
        pos = rng.randrange(len(flipped))
        flipped[pos] ^= 1 << rng.randrange(8)
        try:
            unpack_body(0, bytes(flipped))
        except TransportError:
            pass
