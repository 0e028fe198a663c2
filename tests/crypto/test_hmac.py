"""HMAC link authentication."""

import hashlib
import hmac

import pytest

from repro.common.errors import InvalidSignature
from repro.crypto.hmac_auth import KEY_BYTES, LinkAuthenticator


def test_tag_verify_roundtrip():
    auth = LinkAuthenticator(b"k" * KEY_BYTES)
    tag = auth.tag(b"hello")
    assert auth.verify(b"hello", tag)


def test_wrong_data_rejected():
    auth = LinkAuthenticator(b"k" * KEY_BYTES)
    tag = auth.tag(b"hello")
    assert not auth.verify(b"hellO", tag)


def test_wrong_key_rejected():
    a = LinkAuthenticator(b"a" * KEY_BYTES)
    b = LinkAuthenticator(b"b" * KEY_BYTES)
    assert not b.verify(b"data", a.tag(b"data"))


def test_check_raises():
    auth = LinkAuthenticator(b"k" * KEY_BYTES)
    with pytest.raises(InvalidSignature):
        auth.check(b"data", b"\x00" * 32)


def test_short_key_rejected():
    with pytest.raises(ValueError):
        LinkAuthenticator(b"short")


def test_tag_deterministic():
    auth = LinkAuthenticator(b"k" * KEY_BYTES)
    assert auth.tag(b"x") == auth.tag(b"x")
    assert auth.tag(b"x") != auth.tag(b"y")


@pytest.mark.parametrize("data", [b"", b"x", bytes(range(256)) * 40])
def test_tag_is_hmac_sha256(data):
    key = bytes(range(KEY_BYTES))
    expected = hmac.new(key, data, hashlib.sha256).digest()
    assert LinkAuthenticator(key).tag(data) == expected
