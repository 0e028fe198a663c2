"""The CKS threshold coin: verifiability, unpredictability shape,
subset-independence, and robustness against bad shares."""

import itertools
import random

import pytest

from repro.common.encoding import decode, encode
from repro.common.errors import CryptoError, InvalidShare
from repro.crypto.coin import ThresholdCoin
from repro.crypto.params import get_dl_group

N_PARTIES, K, T = 4, 2, 1


@pytest.fixture(scope="module")
def coin_setup():
    group = get_dl_group(256)
    coin, secrets = ThresholdCoin.deal(
        N_PARTIES, K, T, group, random.Random(3), "test.coin"
    )
    holders = [coin.holder(i + 1, secrets[i]) for i in range(N_PARTIES)]
    return coin, holders


def test_share_verifies(coin_setup):
    coin, holders = coin_setup
    for h in holders:
        share = h.release(b"coin-0")
        assert coin.verify_share(b"coin-0", share)


def test_share_bound_to_name(coin_setup):
    coin, holders = coin_setup
    share = holders[0].release(b"coin-0")
    assert not coin.verify_share(b"coin-1", share)


def test_all_subsets_agree(coin_setup):
    """Any k valid shares yield the same coin value."""
    coin, holders = coin_setup
    name = b"round-7"
    shares = {h.index: h.release(name) for h in holders}
    values = set()
    for subset in itertools.combinations(shares, K):
        values.add(coin.assemble_bit(name, {i: shares[i] for i in subset}))
    assert len(values) == 1


def test_coin_values_vary_with_name(coin_setup):
    """Different coin names produce a roughly balanced bit sequence."""
    coin, holders = coin_setup
    bits = []
    for r in range(40):
        name = encode(("round", r))
        shares = {h.index: h.release(name) for h in holders[:K]}
        bits.append(coin.assemble_bit(name, shares))
    assert 5 < sum(bits) < 35  # both values occur; not constant


def test_coin_bytes_length(coin_setup):
    coin, holders = coin_setup
    shares = {h.index: h.release(b"x") for h in holders[:K]}
    out = coin.assemble_bytes(b"x", shares, 16)
    assert len(out) == 16


def test_too_few_shares(coin_setup):
    coin, holders = coin_setup
    with pytest.raises(CryptoError):
        coin.assemble_bit(b"x", {1: holders[0].release(b"x")})


def test_forged_share_rejected(coin_setup):
    coin, holders = coin_setup
    share = holders[0].release(b"x")
    index, sigma, c, z = decode(share)
    grp = coin.public.group
    forged = encode((index, (sigma * grp.g) % grp.p, c, z))
    assert not coin.verify_share(b"x", forged)


def test_share_from_wrong_holder_rejected(coin_setup):
    """A share claiming another index fails its proof."""
    coin, holders = coin_setup
    share = holders[0].release(b"x")
    _, sigma, c, z = decode(share)
    assert not coin.verify_share(b"x", encode((2, sigma, c, z)))


def test_malformed_share(coin_setup):
    coin, _ = coin_setup
    assert not coin.verify_share(b"x", b"junk")
    assert not coin.verify_share(b"x", encode((1, 2)))
    assert not coin.verify_share(b"x", encode((1, 0, 0, 0)))
    assert not coin.verify_share(b"x", encode((1, 2, 3, 4, 5)))  # one encoding only


def test_assemble_rejects_mislabeled_share(coin_setup):
    coin, holders = coin_setup
    shares = {h.index: h.release(b"x") for h in holders[:K]}
    shares[1] = shares[2]  # share stored under the wrong index
    with pytest.raises(InvalidShare):
        coin.assemble_element(b"x", shares)


def test_deterministic_release(coin_setup):
    """Share release is deterministic (reproducible simulations)."""
    _, holders = coin_setup
    assert holders[0].release(b"x") == holders[0].release(b"x")


def test_coin_share_does_not_reveal_value(coin_setup):
    """With only k-1 = t shares the coin is not assemblable."""
    coin, holders = coin_setup
    with pytest.raises(CryptoError):
        coin.assemble_element(b"z", {1: holders[0].release(b"z")})
