"""The per-party signature checks, :class:`repro.crypto.verifier.ShareVerifier`,
and the scheme calls every other check is.

The digest memo saves a party from hashing a ``(domain, message, modulus)``
twice.  It is deterministic, unbilled work only: every verification it
serves a digest to still exponentiates and records, so a warm memo must bill
what a cold one does and can never turn a bad signature into a good one.

No crypto call remembers a verdict: a check repeated bills what it did the
first time, and a channel run bills the paper's naive operation mix.
"""

import random

import pytest

from repro.common.encoding import encode
from repro.core.party import make_parties
from repro.crypto import hashing, opcount
from repro.crypto.params import get_dl_group
from repro.crypto.threshold_enc import TDH2Scheme
from repro.crypto.verifier import DIGEST_MEMO, ShareVerifier
from repro.experiments.runner import make_channel
from repro.membership.epoch import EpochKeychain
from repro.membership.roster import MembershipChange, Roster
from repro.net.costmodel import LAN_HOSTS
from repro.obs.recorder import MemoryRecorder
from tests.helpers import no_errors, sim_runtime

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
        lambda: verifier.party_sig_ok(party.rsa.public, DOMAIN, MSG, sig),
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
    assert verifier.party_sig_ok(party.rsa.public, DOMAIN, MSG, sig)
    assert verifier.sig_share_ok(scheme, MSG, shares[1])
    assert verifier.sig_ok(scheme, MSG, cert)
    hashed = len(fdh_calls)

    members = scheme.members(cert)
    index, member_sig = members[0]
    forged_cert = scheme.combine(MSG, {**shares, index: encode((index, member_sig + 1))})
    forged_share = encode((1, scheme.share_member(shares[1])[1] ^ 1))
    verdict, bill = _bill(
        lambda: verifier.party_sig_ok(party.rsa.public, DOMAIN, MSG, sig + 1)
    )
    assert not verdict and bill[0] == 1
    assert not verifier.sig_share_ok(scheme, MSG, forged_share)
    assert not verifier.sig_ok(scheme, MSG, forged_cert)
    assert len(fdh_calls) == hashed  # the forgeries were judged on warm digests


def test_verifier_off_is_a_plain_scheme_call(group4, group4_shoup):
    """There is no verdict cache to switch on: each check is the scheme call."""
    for group in (group4, group4_shoup):
        scheme, shares, cert = _certificate(group, MSG)
        pk = group.party(2).rsa.public
        sig = group.party(2).rsa.sign(DOMAIN, MSG)
        verifier = ShareVerifier()
        pairs = [
            (lambda: verifier.sig_share_ok(scheme, MSG, shares[1]),
             lambda: scheme.verify_share(MSG, shares[1])),
            (lambda: verifier.sig_ok(scheme, MSG, cert),
             lambda: scheme.verify(MSG, cert)),
            (lambda: verifier.party_sig_ok(pk, DOMAIN, MSG, sig),
             lambda: pk.verify(DOMAIN, MSG, sig)),
        ]
        for check, plain in pairs:
            naive = _bill(plain)
            assert naive[0] and naive[1][0] > 0
            for _ in range(2):  # nothing is remembered between calls
                assert _bill(check) == naive


def test_parties_share_no_entries_and_the_memo_stays_bounded(group4, fdh_calls):
    mine, theirs = group4.party(0).verifier, group4.party(1).verifier
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
    assert len(p0.verifier._digests) > 0
    p1 = keychain.party_crypto(1, r1, 2)
    assert p1.verifier is not p0.verifier
    assert len(p1.verifier._digests) == 0


# -- threshold decryption and signatures: verdicts -----------------------------

N_PARTIES, K, T = 4, 2, 1


def test_enc_share_verdicts_match_scheme_and_decrypt():
    scheme, secrets = TDH2Scheme.deal(
        N_PARTIES, K, T, get_dl_group(256), random.Random(22), "verify.enc"
    )
    holders = [scheme.holder(i + 1, secrets[i]) for i in range(N_PARTIES)]
    ctxt = scheme.encrypt(b"decrypt me", b"label", random.Random(23))
    other = scheme.encrypt(b"decoy", b"label", random.Random(24))
    shares = {h.index: h.decryption_share(ctxt) for h in holders}
    shares[1] = holders[0].decryption_share(other)  # share for the wrong ciphertext
    assert scheme.check_ciphertext(ctxt)
    valid = {i: s for i, s in shares.items() if scheme.verify_share(ctxt, s)}
    assert sorted(valid) == [2, 3, 4]
    assert scheme.combine(ctxt, valid) == b"decrypt me"


@pytest.mark.parametrize("mode", ["multi", "shoup"])
def test_sig_paths_agree_with_naive(mode, group4, group4_shoup):
    group = group4 if mode == "multi" else group4_shoup
    scheme = group.parties[0].aba_scheme
    message = b"verify-sign-me"
    shares = [party.aba_signer.sign_share(message) for party in group.parties]
    quorum = {scheme.share_index(s): s for s in shares[: scheme.k]}
    signature = scheme.combine(message, quorum)
    verifier = ShareVerifier()
    for share in shares:
        assert verifier.sig_share_ok(scheme, message, share)
        assert not verifier.sig_share_ok(scheme, b"other message", share)
    with opcount.counting() as naive:
        assert scheme.verify(message, signature)
    with opcount.counting() as cert:
        assert verifier.sig_ok(scheme, message, signature)
    assert not verifier.sig_ok(scheme, b"other message", signature)
    # a certificate is judged in full, its shares' verdicts notwithstanding
    assert cert.as_dict() == naive.as_dict()
    if mode == "multi":
        assert cert.ops == scheme.k


# -- no verdict is remembered ----------------------------------------------------

NAME = b"billed-round-1"

#: every exponentiating primitive a protocol reaches, as the call it
#: makes; the dealt keys are fixed, so each call repeats exactly
PRIMITIVES = {
    "coin.verify_share": lambda p, x: p.coin.verify_share(NAME, x["coin"]),
    "tdh2.check_ciphertext": lambda p, x: p.enc.check_ciphertext(x["ctxt"]),
    "tdh2.verify_share": lambda p, x: p.enc.verify_share(x["ctxt"], x["dec"]),
    "sig_share_ok": lambda p, x: p.verifier.sig_share_ok(
        p.cbc_scheme, MSG, x["shares"][1]
    ),
    "sig_ok": lambda p, x: p.verifier.sig_ok(p.cbc_scheme, MSG, x["cert"]),
    "tdh2.encrypt": lambda p, x: p.enc.encrypt(MSG, b"label", random.Random(5)).to_bytes(),
    "coin.release": lambda p, x: p.coin_holder.release(NAME),
    "sign_share": lambda p, x: p.cbc_signer.sign_share(MSG),
}


@pytest.mark.parametrize("primitive", sorted(PRIMITIVES))
def test_a_repeated_check_bills_what_the_first_did(primitive, group4_shoup):
    party = group4_shoup.party(1)
    _, shares, cert = _certificate(group4_shoup, MSG)
    ctxt = party.enc.encrypt(MSG, b"label", random.Random(6))
    inputs = {
        "coin": group4_shoup.party(2).coin_holder.release(NAME),
        "ctxt": ctxt,
        "dec": group4_shoup.party(2).enc_holder.decryption_share(ctxt),
        "shares": shares,
        "cert": cert,
    }
    call = PRIMITIVES[primitive]
    (first, first_bill), (again, again_bill) = (
        _bill(lambda: call(party, inputs)) for _ in range(2)
    )
    assert again == first and first  # a good input, judged alike
    assert again_bill == first_bill and first_bill[0] > 0


# -- a channel run bills the naive operation mix ---------------------------------

#: ``crypto.*`` counters of the runs below: the plain scheme calls' bill
NAIVE_COUNTERS = {
    ("atomic", "multi"): (1653, 530055168, 1556414464),
    ("atomic", "shoup"): (1745, 8781234176, 1385562112),
    ("secure", "multi"): (2376, 7853637632, 1556217856),
    ("secure", "shoup"): (2464, 16072310784, 1383333888),
}


@pytest.mark.parametrize("mode", ["multi", "shoup"])
@pytest.mark.parametrize("kind", ["atomic", "secure"])
def test_a_channel_run_bills_the_naive_counters(kind, mode, group4, group4_shoup):
    """Six payloads from senders 0/2/3 on the LAN cost model."""
    group = group4 if mode == "multi" else group4_shoup
    recorder = MemoryRecorder()
    rt = sim_runtime(group, seed=0xACCE1, hosts=LAN_HOSTS, recorder=recorder)
    channels = [make_channel(p, kind, "diff") for p in make_parties(rt)]
    sent = []
    for sender in (0, 2, 3):
        for k in range(2):
            sent.append(b"m:%d:%d" % (sender, k))
            channels[sender].send(sent[-1])
    got = [[] for _ in channels]

    def reader(i):
        while len(got[i]) < len(sent):
            got[i].append((yield channels[i].receive()))

    rt.run_all(
        [rt.spawn(reader(i)).future for i in range(len(channels))], limit=50_000.0
    )
    no_errors(rt)
    assert all(sequence == got[0] for sequence in got[1:])  # total order
    assert sorted(got[0]) == sorted(sent)
    counters = {k: int(v) for k, v in recorder.counters.items() if k.startswith("crypto.")}
    modexp, units_full, units_short = NAIVE_COUNTERS[kind, mode]
    assert counters == {
        "crypto.modexp": modexp,
        "crypto.units_full": units_full,
        "crypto.units_short": units_short,
    }
