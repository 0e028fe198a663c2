"""The crypto acceleration switch, cross-checked against the naive paths.

Off must *be* the naive implementation (same results, same recorded
operations); on — fixed-base tables in :mod:`repro.crypto.fastexp` plus
the per-party verdict cache of :mod:`repro.crypto.verifier` — must agree
with it bit for bit on every verdict and result, and end to end must
deliver the same payloads.
"""

import random

import pytest

from repro.core.party import make_parties
from repro.crypto import arith, fastexp, opcount
from repro.crypto.coin import ThresholdCoin
from repro.crypto.fastexp import LRU, FixedBaseTable
from repro.crypto.params import get_dl_group
from repro.crypto.threshold_enc import TDH2Scheme
from repro.crypto.verifier import ShareVerifier
from repro.experiments.runner import make_channel
from repro.net.costmodel import LAN_HOSTS
from repro.obs.recorder import MemoryRecorder
from tests.helpers import no_errors, sim_runtime

N_PARTIES, K, T = 4, 2, 1


@pytest.fixture(autouse=True)
def _clean_tables():
    """Every test starts and ends with empty process-wide tables."""
    fastexp.clear_tables()
    yield
    fastexp.clear_tables()


# -- fixed-base tables ---------------------------------------------------------


def test_fixed_base_table_matches_pow():
    rng = random.Random(11)
    m = arith.gen_prime(256, rng)
    for base in (2, rng.randrange(2, m), m - 1):
        table = FixedBaseTable(base, m)
        for e in (0, 1, 2, 15, 16, 17, rng.getrandbits(256), (1 << 256) - 1):
            result, _mults = table.pow(e)
            assert result == pow(base, e, m)


def test_fixed_base_table_extends_lazily():
    """A table built for small exponents grows rows for larger ones."""
    rng = random.Random(12)
    m = arith.gen_prime(256, rng)
    table = FixedBaseTable(3, m)
    assert table.pow(7)[0] == pow(3, 7, m)
    rows_small = len(table._rows)
    big = rng.getrandbits(250) | (1 << 249)
    assert table.pow(big)[0] == pow(3, big, m)
    assert len(table._rows) > rows_small
    # and shrinking again reuses the grown table
    assert table.pow(7)[0] == pow(3, 7, m)


def test_fb_pow_is_plain_mexp_when_off():
    rng = random.Random(13)
    m = arith.gen_prime(256, rng)
    b, e = rng.randrange(2, m), rng.getrandbits(255)
    with opcount.counting() as naive:
        expected = arith.mexp(b, e, m)
    with opcount.counting() as off:
        got = fastexp.fb_pow(b, e, m)
    assert got == expected == pow(b, e, m)
    # off: no tables were created and the counters are identical
    assert not fastexp.enabled()
    assert len(fastexp._tables) == 0
    assert off.as_dict() == naive.as_dict()


def test_fb_pow_neg_matches_invmod_route():
    grp = get_dl_group(256)
    rng = random.Random(14)
    x = rng.randrange(1, grp.q)
    base = pow(grp.g, rng.randrange(1, grp.q), grp.p)  # subgroup element
    expected = arith.mexp(arith.invmod(base, grp.p), x, grp.p)
    with fastexp.accelerated():
        assert fastexp.fb_pow_neg(base, x, grp.p, grp.q) == expected


def test_table_lru_eviction_respects_cache_size():
    rng = random.Random(15)
    m = arith.gen_prime(256, rng)
    last = 2 + fastexp.TABLE_CACHE + 5
    with fastexp.accelerated():
        for base in range(2, last + 1):
            fastexp.fb_pow(base, 12345, m)
    assert len(fastexp._tables) == fastexp.TABLE_CACHE
    # most recent bases survived
    assert (last, m) in fastexp._tables
    assert (2, m) not in fastexp._tables


def test_lru_mapping_evicts_oldest():
    lru = LRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # refreshes "a"
    lru.put("c", 3)
    assert "b" not in lru and "a" in lru and "c" in lru
    assert len(lru) == 2


def test_table_pow_bills_multiplications_performed():
    rng = random.Random(18)
    m = arith.gen_prime(256, rng)
    e = rng.getrandbits(255) | (1 << 254)
    with opcount.counting() as naive:
        arith.mexp(3, e, m)
    with fastexp.accelerated():
        fastexp.fb_pow(3, e, m)  # warm the table; precompute is one-time
        with opcount.counting() as accel:
            fastexp.fb_pow(3, e - 1, m)
    assert (accel.ops, accel.ops_fast) == (0, 1)
    assert accel.units == accel.units_batched < naive.units


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
    assert second.ops == 0 and second.ops_fast == 0 and second.units == 0


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
        assert cert.ops == 0 and cert.ops_fast == 0


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
    fastexp.clear_tables()
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
