"""The replicated payment ledger: signatures, nonces, double spends,
conservation invariants (including property-based command streams)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.encoding import decode, encode
from repro.app.ledger import Ledger, ReplicatedLedger, transfer_statement
from repro.core.party import make_parties
from repro.crypto.rsa import generate_keypair
from repro.testing.invariants import tap_applies

from tests.helpers import no_errors, sim_runtime, sync_applied

ALICE_KEY = generate_keypair(256, random.Random(1))
BOB_KEY = generate_keypair(256, random.Random(2))


# -- the bare state machine ------------------------------------------------------


def _ledger_with_accounts():
    ledger = Ledger()
    ledger.apply(Ledger.cmd_open(b"alice", ALICE_KEY.public, 100))
    ledger.apply(Ledger.cmd_open(b"bob", BOB_KEY.public, 50))
    return ledger


def test_open_and_balance():
    ledger = _ledger_with_accounts()
    assert ledger.balance(b"alice") == 100
    assert ledger.balance(b"bob") == 50
    assert ledger.total_supply() == 150
    result = decode(ledger.apply(Ledger.cmd_balance(b"alice")))
    assert result == ("balance", b"alice", 100)


def test_transfer_happy_path():
    ledger = _ledger_with_accounts()
    out = ledger.apply(Ledger.cmd_transfer(b"alice", b"bob", 30, 0, ALICE_KEY))
    assert decode(out)[0] == "transferred"
    assert ledger.balance(b"alice") == 70
    assert ledger.balance(b"bob") == 80
    assert ledger.total_supply() == 150  # conservation


def test_replay_rejected_by_nonce():
    ledger = _ledger_with_accounts()
    cmd = Ledger.cmd_transfer(b"alice", b"bob", 30, 0, ALICE_KEY)
    assert decode(ledger.apply(cmd))[0] == "transferred"
    assert decode(ledger.apply(cmd)) == ("error", b"bad nonce")  # replayed
    assert ledger.balance(b"alice") == 70


def test_wrong_key_rejected():
    ledger = _ledger_with_accounts()
    forged = Ledger.cmd_transfer(b"alice", b"bob", 30, 0, BOB_KEY)  # Bob forges
    assert decode(ledger.apply(forged)) == ("error", b"bad signature")
    assert ledger.balance(b"alice") == 100


def test_tampered_amount_rejected():
    ledger = _ledger_with_accounts()
    _, src, dst, amount, nonce, sig = decode(
        Ledger.cmd_transfer(b"alice", b"bob", 1, 0, ALICE_KEY)
    )
    tampered = encode(("transfer", src, dst, 99, nonce, sig))
    assert decode(ledger.apply(tampered)) == ("error", b"bad signature")


def test_overdraft_rejected():
    ledger = _ledger_with_accounts()
    out = ledger.apply(Ledger.cmd_transfer(b"alice", b"bob", 101, 0, ALICE_KEY))
    assert decode(out) == ("error", b"insufficient funds")
    assert ledger.total_supply() == 150


def test_unknown_accounts_and_bad_amounts():
    ledger = _ledger_with_accounts()
    assert decode(ledger.apply(
        Ledger.cmd_transfer(b"ghost", b"bob", 1, 0, ALICE_KEY)
    )) == ("error", b"unknown account")
    bad = encode(("transfer", b"alice", b"bob", -5, 0, 1))
    assert decode(ledger.apply(bad)) == ("error", b"bad amount")
    assert decode(ledger.apply(b"\x00junk")) == ("error", b"malformed")


def test_duplicate_open_rejected():
    ledger = _ledger_with_accounts()
    out = ledger.apply(Ledger.cmd_open(b"alice", BOB_KEY.public, 7))
    assert decode(out) == ("error", b"account exists")
    assert ledger.balance(b"alice") == 100


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(1, 40),
                          st.integers(0, 3)), max_size=25))
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_conservation_under_random_streams(ops):
    """Any command stream (some valid, some not) conserves total supply
    and never produces a negative balance."""
    ledger = _ledger_with_accounts()
    keys = {b"alice": ALICE_KEY, b"bob": BOB_KEY}
    names = [b"alice", b"bob"]
    for direction, amount, nonce_offset in ops:
        src, dst = names[direction], names[1 - direction]
        nonce = ledger.accounts[src][2] + nonce_offset  # sometimes wrong
        ledger.apply(Ledger.cmd_transfer(src, dst, amount, nonce, keys[src]))
        assert ledger.total_supply() == 150
        assert all(bal >= 0 for _, bal, _ in ledger.accounts.values())


# -- replicated ------------------------------------------------------------------------


def _replicas(rt):
    return [ReplicatedLedger(p) for p in make_parties(rt)]


def test_double_spend_resolved_identically(group4):
    """Alice signs two conflicting transfers of her whole balance (same
    nonce) and submits them at different replicas: exactly one succeeds,
    and every replica agrees which."""
    rt = sim_runtime(group4, seed=5)
    reps = _replicas(rt)
    log = tap_applies(reps[0])
    reps[0].open(b"alice", ALICE_KEY.public, 100)
    reps[0].open(b"bob", BOB_KEY.public, 0)
    reps[0].open(b"carol", BOB_KEY.public, 0)
    sync_applied(rt, reps, 3)

    spend_bob = Ledger.cmd_transfer(b"alice", b"bob", 100, 0, ALICE_KEY)
    spend_carol = Ledger.cmd_transfer(b"alice", b"carol", 100, 0, ALICE_KEY)
    reps[1].submit(spend_bob)
    reps[2].submit(spend_carol)
    sync_applied(rt, reps, 5)

    outcomes = sorted(decode(r)[0] for _, r in log[-2:])
    assert outcomes == ["error", "transferred"]  # exactly one won
    digests = {r.state_digest() for r in reps}
    assert len(digests) == 1
    assert reps[3].ledger.total_supply() == 100
    winner_balances = (reps[0].balance_of(b"bob"), reps[0].balance_of(b"carol"))
    assert sorted(winner_balances) == [0, 100]
    no_errors(rt)
