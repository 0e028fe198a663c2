"""The per-party digest memo of :class:`repro.crypto.verifier.ShareVerifier`.

The memo saves a party from hashing a ``(domain, message, modulus)`` twice.
It is deterministic, unbilled work only: every verification it serves a
digest to still exponentiates and records, so a warm memo must bill what a
cold one does and can never turn a bad signature into a good one.
"""

import pytest

from repro.common.encoding import encode
from repro.crypto import hashing, opcount
from repro.crypto.verifier import DIGEST_MEMO, ShareVerifier
from repro.membership.epoch import EpochKeychain
from repro.membership.roster import MembershipChange, Roster

MSG = b"a statement signed by a quorum"
DOMAIN = "atomic.sign"


@pytest.fixture
def fdh_calls(monkeypatch):
    """Count the full-domain hashes actually computed."""
    calls = []
    real = hashing.fdh_to_zn

    def counted(domain, data, n):
        calls.append((domain, bytes(data), n))
        return real(domain, data, n)

    monkeypatch.setattr(hashing, "fdh_to_zn", counted)
    return calls


def _bill(check):
    with opcount.counting() as counter:
        verdict = check()
    return verdict, (counter.ops, counter.units_full, counter.units_short)


def _certificate(group, message):
    scheme = group.party(0).cbc_scheme
    shares = {
        i + 1: group.party(i).cbc_signer.sign_share(message) for i in range(scheme.k)
    }
    return scheme, shares, scheme.combine(message, shares)


def test_a_warm_memo_returns_the_fresh_digest(group4, fdh_calls):
    verifier = ShareVerifier()
    n = group4.party(1).rsa.n
    for domain, message in ((DOMAIN, MSG), ("", b""), ("sintra.cbc-sig", bytes(300))):
        cold = verifier.fdh(domain, message, n)
        warm = verifier.fdh(domain, bytearray(message), n)
        assert cold == warm == hashing.fdh_to_zn(domain, message, n)
    assert len(fdh_calls) == 3 + 3  # one per statement, plus the references


@pytest.mark.parametrize("mode", ["multi", "shoup"])
def test_a_warm_memo_bills_every_verification(mode, group4, group4_shoup, fdh_calls):
    group = group4 if mode == "multi" else group4_shoup
    scheme, shares, cert = _certificate(group, MSG)
    party = group.party(2)
    sig = party.rsa.sign(DOMAIN, MSG)
    verifier = ShareVerifier()
    checks = [
        lambda: verifier.sig_share_ok(scheme, MSG, shares[1]),
        lambda: verifier.sig_ok(scheme, MSG, cert),
        lambda: verifier.party_sig_ok(party.rsa.public, 2, DOMAIN, MSG, sig),
    ]
    cold = [_bill(check) for check in checks]
    hashed = len(fdh_calls)
    warm = [_bill(check) for check in checks]
    assert len(fdh_calls) == hashed  # every digest came from the memo...
    assert warm == cold  # ...and every check still exponentiated
    assert all(verdict and bill[0] > 0 for verdict, bill in warm)


def test_a_digest_hit_never_answers_the_verdict(group4, fdh_calls):
    scheme, shares, cert = _certificate(group4, MSG)
    party = group4.party(2)
    sig = party.rsa.sign(DOMAIN, MSG)
    verifier = ShareVerifier()
    assert verifier.party_sig_ok(party.rsa.public, 2, DOMAIN, MSG, sig)
    assert verifier.sig_share_ok(scheme, MSG, shares[1])
    assert verifier.sig_ok(scheme, MSG, cert)
    hashed = len(fdh_calls)

    members = scheme.members(cert)
    index, member_sig = members[0]
    forged_cert = scheme.combine(MSG, {**shares, index: encode((index, member_sig + 1))})
    forged_share = encode((1, scheme.share_member(shares[1])[1] ^ 1))
    verdict, bill = _bill(
        lambda: verifier.party_sig_ok(party.rsa.public, 2, DOMAIN, MSG, sig + 1)
    )
    assert not verdict and bill[0] == 1
    assert not verifier.sig_share_ok(scheme, MSG, forged_share)
    assert not verifier.sig_ok(scheme, MSG, forged_cert)
    assert len(fdh_calls) == hashed  # the forgeries were judged on warm digests


def test_parties_share_no_entries_and_the_memo_stays_bounded(group4, fdh_calls):
    mine, theirs = group4.party(0).accel, group4.party(1).accel
    n = group4.party(0).rsa.n
    statement = b"hashed by two parties in this test only"
    mine.fdh(DOMAIN, statement, n)
    theirs.fdh(DOMAIN, statement, n)
    mine.fdh(DOMAIN, statement, n)
    assert len(fdh_calls) == 2  # the second party hashed for itself
    bounded = ShareVerifier()
    for k in range(3 * DIGEST_MEMO):
        bounded.fdh(DOMAIN, b"m%d" % k, n)
        assert len(bounded._digests) <= DIGEST_MEMO
    assert len(bounded._digests) == DIGEST_MEMO


def test_the_digest_memo_does_not_survive_an_epoch_change(group4):
    keychain = EpochKeychain(group4)
    r1 = Roster.initial(4).apply(MembershipChange("refresh"), t=1)
    p0 = keychain.party_crypto(0, Roster.initial(4), 2)
    p0.sign(DOMAIN, MSG)
    assert len(p0.accel._digests) > 0
    p1 = keychain.party_crypto(1, r1, 2)
    assert p1.accel is not p0.accel
    assert len(p1.accel._digests) == 0
