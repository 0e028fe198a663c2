"""Threshold signatures: Shoup scheme, multi-signatures and the
optimistic combiner, including misbehaving-share cases."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.encoding import decode, encode
from repro.common.errors import CryptoError, InvalidShare
from repro.crypto import opcount
from repro.crypto.params import get_rsa_safe_primes
from repro.crypto.rsa import generate_keypair
from repro.crypto.threshold_sig import (
    MultiSignatureScheme,
    ShoupThresholdScheme,
    combine_optimistically,
)

N_PARTIES, K, T = 4, 3, 1
MSG = b"threshold me"


def _shoup(seed=1):
    p, q = get_rsa_safe_primes(256)
    rng = random.Random(seed)
    scheme, secrets = ShoupThresholdScheme.deal(
        N_PARTIES, K, T, p, q, rng, "test.sig"
    )
    signers = [scheme.signer(i + 1, secrets[i]) for i in range(N_PARTIES)]
    return scheme, signers


def _multi(seed=2):
    rng = random.Random(seed)
    keys = [generate_keypair(256, rng) for _ in range(N_PARTIES)]
    scheme = MultiSignatureScheme(
        N_PARTIES, K, T, [k.public for k in keys], "test.multi"
    )
    signers = [scheme.signer(i + 1, keys[i]) for i in range(N_PARTIES)]
    return scheme, signers


SCHEMES = {"shoup": _shoup, "multi": _multi}


@pytest.fixture(scope="module", params=sorted(SCHEMES))
def scheme_and_signers(request):
    return SCHEMES[request.param]()


def test_share_verifies(scheme_and_signers):
    scheme, signers = scheme_and_signers
    for s in signers:
        share = s.sign_share(MSG)
        assert scheme.verify_share(MSG, share)
        assert scheme.share_index(share) == s.index


def test_share_bound_to_message(scheme_and_signers):
    scheme, signers = scheme_and_signers
    share = signers[0].sign_share(MSG)
    assert not scheme.verify_share(b"other message", share)


def test_combine_and_verify(scheme_and_signers):
    scheme, signers = scheme_and_signers
    shares = {s.index: s.sign_share(MSG) for s in signers[:K]}
    sig = scheme.combine(MSG, shares)
    assert scheme.verify(MSG, sig)
    assert not scheme.verify(b"other", sig)


def test_any_quorum_produces_valid_signature(scheme_and_signers):
    scheme, signers = scheme_and_signers
    import itertools

    for subset in itertools.combinations(signers, K):
        shares = {s.index: s.sign_share(MSG) for s in subset}
        assert scheme.verify(MSG, scheme.combine(MSG, shares))


def test_too_few_shares(scheme_and_signers):
    scheme, signers = scheme_and_signers
    shares = {s.index: s.sign_share(MSG) for s in signers[: K - 1]}
    with pytest.raises(CryptoError):
        scheme.combine(MSG, shares)


def test_malformed_share_rejected(scheme_and_signers):
    scheme, _ = scheme_and_signers
    assert not scheme.verify_share(MSG, b"garbage")
    assert not scheme.verify_share(MSG, encode((99, 1, 2, 3)))
    assert not scheme.verify(MSG, b"garbage")


def test_shoup_signature_is_standard_rsa():
    """The assembled Shoup signature verifies as a plain RSA-FDH signature."""
    scheme, signers = _shoup()
    shares = {s.index: s.sign_share(MSG) for s in signers[:K]}
    y = decode(scheme.combine(MSG, shares))
    from repro.crypto import arith, hashing

    x = hashing.fdh_to_zn(scheme.domain, MSG, scheme.public.modulus)
    assert arith.mexp(y, scheme.public.e, scheme.public.modulus) == x


def test_shoup_forged_share_detected():
    scheme, signers = _shoup()
    share = signers[0].sign_share(MSG)
    index, x_i, c, z = decode(share)
    forged = encode((index, (x_i * 2) % scheme.public.modulus, c, z))
    assert not scheme.verify_share(MSG, forged)


def test_shoup_oversized_proof_is_refused_before_exponentiating():
    scheme, signers = _shoup()
    share = signers[0].sign_share(MSG)
    index, x_i, c, z = decode(share)
    with opcount.counting() as honest:
        assert scheme.verify_share(MSG, share)
    assert honest.ops > 0
    oversized = [
        encode((index, x_i, c, z + (z << 65_536))),  # 65 536 extra bits in z
        encode((index, x_i, c + scheme._hash_bound, z)),
        encode((index, x_i, c, -z)),
    ]
    for forged in oversized:
        with opcount.counting() as bill:
            assert not scheme.verify_share(MSG, forged)
        assert bill.ops == 0


def test_multi_signature_requires_distinct_signers():
    scheme, signers = _multi()
    share = decode(signers[0].sign_share(MSG))
    fake = encode([share, share, share])  # same signer three times
    assert not scheme.verify(MSG, fake)


def test_multi_signature_rejects_malformed_certificates():
    scheme, signers = _multi()
    members = [decode(s.sign_share(MSG)) for s in signers[: scheme.k]]
    assert scheme.verify(MSG, encode(members))
    index, sig = members[0]
    for bad in (
        b"junk",
        encode(tuple(members)),  # not a list
        encode(members[: scheme.k - 1]),  # too few
        encode([(0, sig)] + members[1:]),  # index out of range
        encode([(index, b"sig")] + members[1:]),  # signature not an int
        encode([(index, sig, sig)] + members[1:]),  # wrong arity
        encode([(index, sig + 1)] + members[1:]),  # one bad member
    ):
        assert not scheme.verify(MSG, bad)


def test_multi_signer_key_mismatch():
    scheme, _ = _multi()
    wrong_key = generate_keypair(256, random.Random(77))
    with pytest.raises(CryptoError):
        scheme.signer(1, wrong_key)


def test_share_index_errors(scheme_and_signers):
    scheme, _ = scheme_and_signers
    with pytest.raises(InvalidShare):
        scheme.share_index(b"junk")
    with pytest.raises(InvalidShare):
        scheme.share_index(encode((0, 1)))  # index out of range
    with pytest.raises(InvalidShare):
        scheme.share_index(encode((N_PARTIES + 1, 1)))


# -- optimistic combiner -------------------------------------------------------


def test_optimistic_all_good(scheme_and_signers):
    scheme, signers = scheme_and_signers
    shares = {s.index: s.sign_share(MSG) for s in signers[:K]}
    sig = combine_optimistically(scheme, MSG, shares)
    assert sig is not None and scheme.verify(MSG, sig)


def test_optimistic_evicts_bad_share(scheme_and_signers):
    scheme, signers = scheme_and_signers
    shares = {s.index: s.sign_share(MSG) for s in signers[:K]}
    # Corrupt signer 1's share (valid encoding, wrong crypto).
    bad = decode(signers[0].sign_share(b"different message"))
    shares[1] = encode((1, *bad[1:]))
    result = combine_optimistically(scheme, MSG, shares)
    assert result is None
    assert 1 not in shares  # evicted
    assert set(shares) == {2, 3}


def test_optimistic_recovers_with_replacement(scheme_and_signers):
    scheme, signers = scheme_and_signers
    shares = {s.index: s.sign_share(MSG) for s in signers[:K]}
    shares[1] = signers[0].sign_share(b"wrong")  # share for the wrong message
    combine_optimistically(scheme, MSG, shares)  # evicts index 1
    shares[4] = signers[3].sign_share(MSG)  # replacement arrives
    sig = combine_optimistically(scheme, MSG, shares)
    assert sig is not None and scheme.verify(MSG, sig)


@given(st.binary(min_size=1, max_size=64))
@settings(max_examples=10, deadline=None)
def test_multi_roundtrip_random_messages(msg):
    scheme, signers = _multi()
    shares = {s.index: s.sign_share(msg) for s in signers[:K]}
    assert scheme.verify(msg, scheme.combine(msg, shares))
