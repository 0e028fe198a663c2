"""The per-party verification front-end, :class:`repro.crypto.verifier.ShareVerifier`.

The digest memo saves a party from hashing a ``(domain, message, modulus)``
twice.  It is deterministic, unbilled work only: every verification it
serves a digest to still exponentiates and records, so a warm memo must bill
what a cold one does and can never turn a bad signature into a good one.

The acceleration switch (:mod:`repro.crypto.fastexp`) turns on the verdict
cache, and nothing else.  Off must *be* the naive implementation (same
results, same recorded operations); on must agree with it bit for bit on
every verdict and result, must bill a cold check exactly as off does, and
end to end must deliver the same payloads.
"""

import random

import pytest

from repro.common.encoding import encode
from repro.core.party import make_parties
from repro.crypto import fastexp, hashing, opcount
from repro.crypto.coin import ThresholdCoin
from repro.crypto.params import get_dl_group
from repro.crypto.threshold_enc import TDH2Scheme
from repro.crypto.verifier import DIGEST_MEMO, LRU, ShareVerifier
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


# -- the acceleration switch ----------------------------------------------------

N_PARTIES, K, T = 4, 2, 1


def test_lru_mapping_evicts_oldest():
    lru = LRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # refreshes "a"
    lru.put("c", 3)
    assert "b" not in lru and "a" in lru and "c" in lru
    assert len(lru) == 2


def test_accelerated_context_nests_and_restores():
    assert not fastexp.enabled()
    with fastexp.accelerated():
        assert fastexp.enabled()
        with fastexp.accelerated(False):
            assert not fastexp.enabled()
        assert fastexp.enabled()
    assert not fastexp.enabled()


# -- verdict cache: threshold coin ---------------------------------------------


@pytest.fixture(scope="module")
def coin_setup():
    group = get_dl_group(256)
    coin, secrets = ThresholdCoin.deal(
        N_PARTIES, K, T, group, random.Random(21), "accel.coin"
    )
    holders = [coin.holder(i + 1, secrets[i]) for i in range(N_PARTIES)]
    return coin, holders


def test_cache_hit_performs_no_exponentiation(coin_setup):
    coin, holders = coin_setup
    name = b"accel-round-5"
    good = holders[0].release(name)
    bad = holders[1].release(b"some-other-name")  # valid-looking, wrong name
    verifier = ShareVerifier()
    with fastexp.accelerated():
        with opcount.counting() as first:
            assert verifier.coin_share_ok(coin, name, good)
            assert not verifier.coin_share_ok(coin, name, bad)
        with opcount.counting() as second:
            assert verifier.coin_share_ok(coin, name, good)
            assert not verifier.coin_share_ok(coin, name, bad)
    assert first.ops > 0
    assert second.ops == 0 and second.units == 0


def test_verifier_off_is_a_plain_scheme_call(coin_setup):
    coin, holders = coin_setup
    name = b"accel-round-6"
    share = holders[0].release(name)
    verifier = ShareVerifier()
    with opcount.counting() as naive:
        assert coin.verify_share(name, share)
    for _ in range(2):  # nothing is remembered between calls
        with opcount.counting() as off:
            assert verifier.coin_share_ok(coin, name, share)
        assert off.as_dict() == naive.as_dict()


# -- verdict cache: threshold decryption ---------------------------------------


def test_enc_share_verdicts_match_scheme_and_decrypt():
    scheme, secrets = TDH2Scheme.deal(
        N_PARTIES, K, T, get_dl_group(256), random.Random(22), "accel.enc"
    )
    holders = [scheme.holder(i + 1, secrets[i]) for i in range(N_PARTIES)]
    ctxt = scheme.encrypt(b"accelerate me", b"label", random.Random(23))
    other = scheme.encrypt(b"decoy", b"label", random.Random(24))
    shares = {h.index: h.decryption_share(ctxt) for h in holders}
    shares[1] = holders[0].decryption_share(other)  # share for the wrong ciphertext
    naive = {i: scheme.verify_share(ctxt, s) for i, s in shares.items()}
    with fastexp.accelerated():
        verifier = ShareVerifier()
        assert verifier.ciphertext_ok(scheme, ctxt)
        for _ in range(2):
            verdicts = {
                i: verifier.enc_share_ok(scheme, ctxt, s) for i, s in shares.items()
            }
            assert verdicts == naive
        valid = {i: s for i, s in shares.items() if verdicts[i]}
        assert sorted(valid) == [2, 3, 4]
        assert scheme.combine(ctxt, valid, verifier=verifier) == b"accelerate me"


# -- verdict cache: threshold signatures ---------------------------------------


@pytest.mark.parametrize("mode", ["multi", "shoup"])
def test_sig_paths_agree_with_naive(mode, group4, group4_shoup):
    group = group4 if mode == "multi" else group4_shoup
    scheme = group.parties[0].aba_scheme
    message = b"accel-sign-me"
    shares = [party.aba_signer.sign_share(message) for party in group.parties]
    quorum = {scheme.share_index(s): s for s in shares[: scheme.k]}
    signature = scheme.combine(message, quorum)
    assert scheme.verify(message, signature)
    with fastexp.accelerated():
        verifier = ShareVerifier()
        for share in shares:
            assert verifier.sig_share_ok(scheme, message, share)
        with opcount.counting() as cert:
            assert verifier.sig_ok(scheme, message, signature)
        assert not verifier.sig_share_ok(scheme, b"other message", shares[0])
    if mode == "multi":
        # certificate members were already cached from share verification
        assert cert.ops == 0


# -- the switch changes how often a check runs, never what one check bills -----

NAME = b"billed-round-1"

#: every exponentiating primitive a protocol reaches, as a call on a cold
#: verifier; the dealt keys are fixed, so each call repeats exactly
PRIMITIVES = {
    "coin_share_ok": lambda p, v, x: v.coin_share_ok(p.coin, NAME, x["coin"]),
    "ciphertext_ok": lambda p, v, x: v.ciphertext_ok(p.enc, x["ctxt"]),
    "enc_share_ok": lambda p, v, x: v.enc_share_ok(p.enc, x["ctxt"], x["dec"]),
    "sig_share_ok": lambda p, v, x: v.sig_share_ok(p.cbc_scheme, MSG, x["shares"][1]),
    "sig_ok": lambda p, v, x: v.sig_ok(p.cbc_scheme, MSG, x["cert"]),
    "encrypt": lambda p, v, x: p.enc.encrypt(MSG, b"label", random.Random(5)).to_bytes(),
    "release": lambda p, v, x: p.coin_holder.release(NAME),
    "sign_share": lambda p, v, x: p.cbc_signer.sign_share(MSG),
}


@pytest.mark.parametrize("primitive", sorted(PRIMITIVES))
def test_the_switch_never_changes_what_one_check_bills(primitive, group4_shoup):
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
    runs = []
    for on in (False, True):
        with fastexp.accelerated(on):
            runs.append(_bill(lambda: call(party, ShareVerifier(), inputs)))
    (off_result, off_bill), (on_result, on_bill) = runs
    assert on_result == off_result and off_result  # a good input, judged alike
    assert on_bill == off_bill and off_bill[0] > 0


# -- differential: the same seed through both settings of the switch -----------

#: ``crypto.*`` counters of the off-mode runs below, as measured on the
#: implementation that predates the single switch (and, for that matter,
#: on the one that predates acceleration): off is the naive path.
NAIVE_COUNTERS = {
    ("atomic", "multi"): (1653, 530055168, 1556414464),
    ("atomic", "shoup"): (1745, 8781234176, 1385562112),
    ("secure", "multi"): (2376, 7853637632, 1556217856),
    ("secure", "shoup"): (2464, 16072310784, 1383333888),
}


def _channel_run(group, kind, accel):
    """Six payloads from senders 0/2/3 on the LAN cost model; returns every
    party's delivery sequence and the run's ``crypto.*`` counters."""
    recorder = MemoryRecorder()
    with fastexp.accelerated(accel):
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
    counters = {k: int(v) for k, v in recorder.counters.items() if k.startswith("crypto.")}
    return sent, got, counters


@pytest.mark.parametrize("mode", ["multi", "shoup"])
@pytest.mark.parametrize("kind", ["atomic", "secure"])
def test_off_and_on_deliver_the_same_payloads(kind, mode, group4, group4_shoup):
    group = group4 if mode == "multi" else group4_shoup
    sent, off, off_counters = _channel_run(group, kind, accel=False)
    _, on, on_counters = _channel_run(group, kind, accel=True)
    for got in (off, on):
        # total order within a run; the order itself may differ between the
        # two runs, because cheaper crypto changes the schedule
        assert all(sequence == got[0] for sequence in got[1:])
        assert sorted(got[0]) == sorted(sent)
    modexp, units_full, units_short = NAIVE_COUNTERS[kind, mode]
    assert off_counters == {
        "crypto.modexp": modexp,
        "crypto.units_full": units_full,
        "crypto.units_short": units_short,
    }
    assert on_counters["crypto.modexp"] < modexp
