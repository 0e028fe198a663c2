"""The per-party signature checks, :class:`repro.crypto.verifier.ShareVerifier`,
and the scheme calls every other check is.

The verdict memo judges each distinct input once per party: a repeated
check returns the remembered verdict, true or false, without exponentiating,
and bills exactly what the first check billed.  Anything else — one byte of
the message or signature changed, another party's key, another scheme,
another party's or epoch's verifier — is checked in full.

Every crypto call bills its full work every time, remembered or not, so a
channel run bills the paper's naive operation mix.
"""

import random

import pytest

from repro.core.party import make_parties
from repro.crypto import arith, opcount
from repro.crypto.params import get_dl_group
from repro.crypto.threshold_enc import TDH2Scheme
from repro.crypto.verifier import VERDICTS, ShareVerifier
from repro.experiments.runner import make_channel
from repro.membership.epoch import EpochKeychain
from repro.membership.roster import MembershipChange, Roster
from repro.net.costmodel import LAN_HOSTS
from repro.obs.recorder import MemoryRecorder
from tests.helpers import no_errors, sim_runtime

MSG = b"a statement signed by a quorum"
DOMAIN = "atomic.sign"


@pytest.fixture
def powmods(monkeypatch):
    """Count the modular exponentiations actually computed."""
    calls = []
    real = arith.powmod

    def counted(base, exponent, modulus):
        calls.append(modulus)
        return real(base, exponent, modulus)

    monkeypatch.setattr(arith, "powmod", counted)
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


def _flip(data: bytes) -> bytes:
    """``data`` with its last byte changed."""
    return data[:-1] + bytes([data[-1] ^ 1])


def _checks(group, verifier):
    """The three signature checks on good inputs, each with its plain call."""
    scheme, shares, cert = _certificate(group, MSG)
    pk = group.party(2).rsa.public
    sig = group.party(2).rsa.sign(DOMAIN, MSG)
    return {
        "sig_share_ok": (lambda: verifier.sig_share_ok(scheme, MSG, shares[1]),
                         lambda: scheme.verify_share(MSG, shares[1])),
        "sig_ok": (lambda: verifier.sig_ok(scheme, MSG, cert),
                   lambda: scheme.verify(MSG, cert)),
        "party_sig_ok": (lambda: verifier.party_sig_ok(pk, DOMAIN, MSG, sig),
                         lambda: pk.verify(DOMAIN, MSG, sig)),
    }


def _group(mode, group4, group4_shoup):
    return group4 if mode == "multi" else group4_shoup


@pytest.mark.parametrize("mode", ["multi", "shoup"])
def test_a_warm_memo_bills_every_verification(mode, group4, group4_shoup, powmods):
    verifier = ShareVerifier()
    checks = _checks(_group(mode, group4, group4_shoup), verifier)
    for name, (check, plain) in checks.items():
        naive = _bill(plain)
        del powmods[:]
        cold = _bill(check)
        assert powmods, name  # a miss exponentiates...
        del powmods[:]
        warm = [_bill(check) for _ in range(3)]
        assert not powmods, name  # ...a hit does not...
        assert warm == [cold] * 3 and cold == naive, name  # ...and bills alike
        assert cold[0] and cold[1][0] > 0


@pytest.mark.parametrize("mode", ["multi", "shoup"])
def test_a_false_verdict_is_remembered_and_billed(mode, group4, group4_shoup, powmods):
    group = _group(mode, group4, group4_shoup)
    scheme, shares, cert = _certificate(group, MSG)
    pk = group.party(2).rsa.public
    sig = group.party(2).rsa.sign(DOMAIN, MSG)
    verifier = ShareVerifier()
    forged = [
        lambda: verifier.sig_share_ok(scheme, b"other", shares[1]),
        lambda: verifier.sig_ok(scheme, b"other", cert),
        lambda: verifier.party_sig_ok(pk, DOMAIN, MSG, sig + 1),
    ]
    for check in forged:
        del powmods[:]
        cold = _bill(check)
        assert powmods and not cold[0] and cold[1][0] > 0
        del powmods[:]
        assert _bill(check) == cold and not powmods


def test_a_digest_hit_never_answers_the_verdict(group4, group4_shoup, powmods):
    """A remembered verdict answers its exact input only: a forged variant
    of a warm input (one byte of message or signature, another party's key,
    another scheme) misses, is checked in full and bills the plain call."""
    for group in (group4, group4_shoup):
        scheme, shares, cert = _certificate(group, MSG)
        other_scheme = group.party(0).aba_scheme
        party, other = group.party(2).rsa, group.party(3).rsa
        sig = party.sign(DOMAIN, MSG)
        verifier = ShareVerifier()
        assert verifier.sig_share_ok(scheme, MSG, shares[1])
        assert verifier.sig_ok(scheme, MSG, cert)
        assert verifier.party_sig_ok(party.public, DOMAIN, MSG, sig)
        variants = [
            (verifier.sig_share_ok, scheme.verify_share, (scheme, _flip(MSG), shares[1])),
            (verifier.sig_share_ok, scheme.verify_share, (scheme, MSG, _flip(shares[1]))),
            (verifier.sig_share_ok, other_scheme.verify_share, (other_scheme, MSG, shares[1])),
            (verifier.sig_ok, scheme.verify, (scheme, _flip(MSG), cert)),
            (verifier.sig_ok, scheme.verify, (scheme, MSG, _flip(cert))),
            (verifier.sig_ok, other_scheme.verify, (other_scheme, MSG, cert)),
            (verifier.party_sig_ok, party.public.verify, (party.public, DOMAIN, _flip(MSG), sig)),
            (verifier.party_sig_ok, party.public.verify, (party.public, DOMAIN, MSG, sig ^ 1)),
            (verifier.party_sig_ok, other.public.verify, (other.public, DOMAIN, MSG, sig)),
        ]
        for check, plain, args in variants:
            naive = _bill(lambda: plain(*args[1:]))
            del powmods[:]
            judged = _bill(lambda: check(*args))
            assert judged == naive and not judged[0], (check.__name__, args[1:])
            # the plain call exponentiates whenever the input is well formed
            assert bool(powmods) == (naive[1][0] > 0)


def test_verifier_off_is_a_plain_scheme_call(group4, group4_shoup):
    """Each check, cold or warm, judges and bills as the plain scheme call."""
    for group in (group4, group4_shoup):
        for check, plain in _checks(group, ShareVerifier()).values():
            naive = _bill(plain)
            assert naive[0] and naive[1][0] > 0
            for _ in range(2):  # a miss, then a hit: both bill the plain call
                assert _bill(check) == naive


def test_parties_share_no_entries_and_the_memo_stays_bounded(
    group4, group4_shoup, powmods
):
    statement = b"checked by two parties in this test only"
    for group in (group4, group4_shoup):
        # the dealt verifiers: a dealer handing one memo to two parties fails
        mine, theirs = group.party(0).verifier, group.party(1).verifier
        assert mine is not theirs
        scheme, shares, cert = _certificate(group, statement)
        pk = group.party(2).rsa.public
        sig = group.party(2).rsa.sign(DOMAIN, statement)
        checks = (
            lambda v: v.party_sig_ok(pk, DOMAIN, statement, sig),
            lambda v: v.sig_ok(scheme, statement, cert),
        )
        for check in checks:
            del powmods[:]
            assert check(mine)
            assert powmods
            del powmods[:]
            assert check(theirs)
            assert powmods  # the second party checked for itself
            del powmods[:]
            assert check(mine) and check(theirs)
            assert not powmods

        bounded = ShareVerifier()
        pk = group.party(1).rsa.public
        for k in range(3 * VERDICTS):
            bounded.party_sig_ok(pk, DOMAIN, b"m%d" % k, k + 2)
            bounded.sig_share_ok(scheme, b"m%d" % k, shares[1])
            assert len(bounded._verdicts) <= VERDICTS
        assert len(bounded._verdicts) == VERDICTS
        del powmods[:]
        bounded.party_sig_ok(pk, DOMAIN, b"m0", 2)  # long evicted: checked again
        assert powmods


def test_the_verdict_memo_does_not_survive_an_epoch_change(group4_shoup, powmods):
    keychain = EpochKeychain(group4_shoup)
    r1 = Roster.initial(4).apply(MembershipChange("refresh"), t=1)
    p0 = keychain.party_crypto(0, Roster.initial(4), 2)
    sig = p0.sign(DOMAIN, MSG)
    share = p0.cbc_signer.sign_share(MSG)
    assert p0.verify_party(2, DOMAIN, MSG, sig)
    assert p0.verifier.sig_share_ok(p0.cbc_scheme, MSG, share)
    assert p0.verifier._verdicts  # the shared epoch-0 bundle may hold more
    p1 = keychain.party_crypto(1, r1, 2)
    assert p1.verifier is not p0.verifier
    assert len(p1.verifier._verdicts) == 0
    assert p1.cbc_scheme is not p0.cbc_scheme
    del powmods[:]
    assert p1.verify_party(2, DOMAIN, MSG, sig)  # same key, new epoch: checked
    assert powmods
    del powmods[:]
    # the old epoch's share under the new epoch's scheme: checked and refused
    assert not p1.verifier.sig_share_ok(p1.cbc_scheme, MSG, share)
    assert powmods


def test_a_decryption_share_is_remembered_per_ciphertext(group4, powmods):
    party = group4.party(1)
    enc = party.enc
    ctxt = enc.encrypt(MSG, b"label", random.Random(7))
    other = enc.encrypt(MSG, b"label", random.Random(8))
    share = group4.party(2).enc_holder.decryption_share(ctxt)
    verifier = ShareVerifier()
    naive = _bill(lambda: enc.verify_share(ctxt, share))
    cold = _bill(lambda: verifier.dec_share_ok(enc, ctxt, share))
    del powmods[:]
    warm = _bill(lambda: verifier.dec_share_ok(enc, ctxt, share))
    assert not powmods and warm == cold == naive and naive[0]
    refused = _bill(lambda: verifier.dec_share_ok(enc, other, share))
    assert powmods and not refused[0]
    assert refused == _bill(lambda: enc.verify_share(other, share))


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


# -- a repeated check bills what the first did ---------------------------------

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
    "dec_share_ok": lambda p, x: p.verifier.dec_share_ok(p.enc, x["ctxt"], x["dec"]),
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


def _channel_run(group, kind, per_sender, recorder=None, senders=(0, 2, 3)):
    """``per_sender`` payloads from each of ``senders`` on the LAN cost
    model, read by every party."""
    rt = sim_runtime(group, seed=0xACCE1, hosts=LAN_HOSTS, recorder=recorder)
    channels = [make_channel(p, kind, "diff") for p in make_parties(rt)]
    sent = []
    for sender in senders:
        for k in range(per_sender):
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


@pytest.mark.parametrize("mode", ["multi", "shoup"])
@pytest.mark.parametrize("kind", ["atomic", "secure"])
def test_a_channel_run_bills_the_naive_counters(kind, mode, group4, group4_shoup):
    """Six payloads from senders 0/2/3 on the LAN cost model."""
    group = group4 if mode == "multi" else group4_shoup
    recorder = MemoryRecorder()
    _channel_run(group, kind, 2, recorder)
    counters = {k: int(v) for k, v in recorder.counters.items() if k.startswith("crypto.")}
    modexp, units_full, units_short = NAIVE_COUNTERS[kind, mode]
    assert counters == {
        "crypto.modexp": modexp,
        "crypto.units_full": units_full,
        "crypto.units_short": units_short,
    }


def test_each_decryption_share_is_checked_once_per_party(group4, monkeypatch):
    """An honest secure run of 20 payloads needs ``k`` share checks per
    party and payload; every further look at a share is a remembered
    verdict, billed as the check was.  Without the memo the same run makes
    half as many checks again."""
    executed = []
    real = TDH2Scheme.verify_share

    def counted(self, ctxt, share):
        executed.append(share)
        return real(self, ctxt, share)

    def run(recorder):
        del executed[:]
        _channel_run(group4, "secure", 5, recorder, senders=range(4))
        return len(executed), {
            k: v for k, v in recorder.counters.items() if k.startswith("crypto.")
        }

    monkeypatch.setattr(TDH2Scheme, "verify_share", counted)
    checked, billed = run(MemoryRecorder())
    monkeypatch.setattr(  # every check runs: the naive verifier
        ShareVerifier, "_judge", lambda self, key, check, *args: check(*args)
    )
    naive_checked, naive_billed = run(MemoryRecorder())
    assert checked <= group4.party(0).enc.k * group4.n * 20 == 160
    assert naive_checked == 240
    assert billed == naive_billed
