"""Random-oracle utilities: determinism, ranges, domain separation."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.encoding import encode
from repro.crypto import arith, hashing, rsa
from repro.crypto.params import get_dl_group

#: 58 % of first candidates share a factor with it, so the counter loop runs
SMOOTH_N = 3 * 5 * 7 * 11 * 104729
DEALT_N = rsa.generate_keypair(512, random.Random(21)).n


def test_oracle_bytes_deterministic_and_sized():
    a = hashing.oracle_bytes("d", b"x", 100)
    b = hashing.oracle_bytes("d", b"x", 100)
    assert a == b and len(a) == 100


def test_oracle_bytes_prefix_consistent():
    long = hashing.oracle_bytes("d", b"x", 96)
    short = hashing.oracle_bytes("d", b"x", 32)
    assert long[:32] == short


def test_domain_separation():
    assert hashing.oracle_bytes("a", b"x", 32) != hashing.oracle_bytes("b", b"x", 32)
    assert hashing.hash_to_int("a", b"x", 1 << 128) != hashing.hash_to_int(
        "b", b"x", 1 << 128
    )


@given(st.binary(max_size=32), st.integers(min_value=2, max_value=10 ** 30))
def test_hash_to_int_in_range(data, bound):
    v = hashing.hash_to_int("t", data, bound)
    assert 0 <= v < bound


@given(st.binary(max_size=32))
@settings(max_examples=20)
def test_hash_to_group_membership(data):
    g = get_dl_group(256)
    x = hashing.hash_to_group("t", data, g.p, g.q)
    assert g.is_member(x)
    assert x != 1


@given(st.binary(max_size=32))
@settings(max_examples=20)
def test_fdh_coprime(data):
    n = 3 * 5 * 7 * 11 * 104729
    x = hashing.fdh_to_zn("t", data, n)
    assert 2 <= x < n
    from math import gcd

    assert gcd(x, n) == 1


def _fdh_reference(domain, data, n):
    """``fdh_to_zn`` as it was while the coprimality test was ``arith.egcd``;
    returns the counter that was accepted as well."""
    counter = 0
    while True:
        x = hashing.hash_to_int(domain, encode((data, counter)), n - 2) + 2
        if arith.egcd(x, n)[0] == 1:
            return x, counter
        counter += 1


@pytest.mark.parametrize("n", [SMOOTH_N, DEALT_N], ids=["smooth", "dealt-512"])
@given(st.sampled_from(["t", "repro.sig", ""]), st.binary(max_size=80))
@settings(max_examples=100)
def test_fdh_matches_egcd_reference(n, domain, data):
    assert hashing.fdh_to_zn(domain, data, n) == _fdh_reference(domain, data, n)[0]


def test_fdh_retry_branch_is_exercised():
    counters = [_fdh_reference("t", b"a%d" % i, SMOOTH_N)[1] for i in range(30)]
    assert sum(c > 0 for c in counters) >= 10 and max(counters) >= 2


@pytest.mark.parametrize(
    "domain, data, n, expected",
    [  # computed at 27c9828 (egcd); the first one is accepted on a retry
        ("t", b"a0", SMOOTH_N, 95646718),
        (
            "repro.rsa",
            b"message",
            67502083847044127709609317720844473178268748261756538744465114119399772822029,
            13818157970351476127009934178279241038970867351923257042497427624238417407165,
        ),
        (
            "atomic.sign",
            bytes(range(64)),
            9091836394769795716823728074617564647749441364838711365596681462332264784789483854747908554312467566822046706250362659707927724728135695950034965962791017,
            2912050726817231118146200059465745470022197908037085225098806753663212850755312537718546363987530808677126388271750529458364347840782616900697531965718649,
        ),
    ],
)
def test_fdh_golden_values(domain, data, n, expected):
    assert hashing.fdh_to_zn(domain, data, n) == expected
    assert _fdh_reference(domain, data, n)[0] == expected


def _oracle_reference(domain, data, length):
    """``oracle_bytes`` as defined through the codec's framing."""
    seed = hashlib.sha256(encode(("repro.oracle", domain, data))).digest()
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(seed + counter.to_bytes(8, "big")).digest()
        counter += 1
    return out[:length]


_DOMAINS = st.one_of(
    st.just(""), st.text(alphabet=st.characters(max_codepoint=127)), st.text()
)


@given(_DOMAINS, st.binary(max_size=300), st.integers(min_value=1, max_value=200))
@settings(max_examples=100)
def test_oracle_framing_matches_the_codec(domain, data, length):
    expected = _oracle_reference(domain, data, length)
    assert hashing.oracle_bytes(domain, data, length) == expected
    assert hashing.oracle_bytes(domain, bytearray(data), length) == expected
    assert hashing.oracle_bytes(domain, memoryview(data), length) == expected


@given(_DOMAINS, st.binary(max_size=300))
@settings(max_examples=60)
def test_fdh_framing_matches_the_reference(domain, data):
    for n in (SMOOTH_N, DEALT_N):
        expected = _fdh_reference(domain, data, n)[0]
        assert hashing.fdh_to_zn(domain, data, n) == expected
        assert hashing.fdh_to_zn(domain, bytearray(data), n) == expected
        assert hashing.fdh_to_zn(domain, memoryview(data), n) == expected


def test_fdh_framing_follows_the_retry_path():
    """Counters past the first byte and retries still frame as the codec does."""
    retried = [
        data for data in (b"a%d" % i for i in range(30))
        if _fdh_reference("t", data, SMOOTH_N)[1] > 0
    ]
    assert retried
    for data in retried:
        assert hashing.fdh_to_zn("t", data, SMOOTH_N) == _fdh_reference(
            "t", data, SMOOTH_N)[0]
    for counter in (0, 1, 255, 256, 1 << 40):
        assert hashing._counted(b"x" * 7, counter) == encode((b"x" * 7, counter))


def test_keystream_xor_roundtrip():
    key = b"k" * 32
    msg = b"the quick brown fox"
    ct = hashing.xor_bytes(msg, hashing.keystream(key, len(msg)))
    assert ct != msg
    assert hashing.xor_bytes(ct, hashing.keystream(key, len(ct))) == msg


def test_xor_bytes_length_mismatch():
    import pytest

    with pytest.raises(ValueError):
        hashing.xor_bytes(b"ab", b"a")


def test_xor_bytes_keeps_leading_zeros_and_length():
    assert hashing.xor_bytes(b"\x00\x00\x01\xff", b"\x00\x00\x01\x0f") == b"\x00\x00\x00\xf0"
    assert hashing.xor_bytes(b"\x00\x07", b"\x00\x07") == b"\x00\x00"
    assert hashing.xor_bytes(b"", b"") == b""


def test_challenge_depends_on_all_parts():
    c1 = hashing.challenge("d", (1, 2, 3), 1 << 64)
    c2 = hashing.challenge("d", (1, 2, 4), 1 << 64)
    c3 = hashing.challenge("d", (1, 2, 3), 1 << 64)
    assert c1 == c3 != c2
