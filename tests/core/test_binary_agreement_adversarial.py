"""Direct-drive adversarial tests of binary agreement's vote validation.

A :class:`MockContext` hosts party 0's instance and we hand-craft the
messages a Byzantine network could deliver, checking that improper votes
are rejected and proper ones drive the protocol, without a simulator in
the loop.
"""

import pytest

from repro.core.agreement.binary import (
    ABSTAIN,
    BinaryAgreement,
    MSG_COIN,
    MSG_DECIDE,
    MSG_MAINVOTE,
    MSG_PREVOTE,
    coin_name,
    mainvote_string,
    prevote_string,
)

from tests.conftest import cached_group
from tests.helpers import MockContext


@pytest.fixture()
def setup():
    group = cached_group()
    ctx = MockContext(group, node_id=0)
    aba = BinaryAgreement(ctx, "adv")
    return group, ctx, aba


def _prevote(group, pid, j, r, b, just=None, proof=None):
    share = group.party(j).aba_signer.sign_share(prevote_string(pid, r, b))
    return (r, b, just, proof, share)


def _mainvote(group, pid, j, r, v, just, proof=None):
    share = group.party(j).aba_signer.sign_share(mainvote_string(pid, r, v))
    return (r, v, just, proof, share)


def test_proper_prevotes_counted(setup):
    group, ctx, aba = setup
    aba.propose(1)
    for j in (1, 2):
        aba.on_message(j, MSG_PREVOTE, _prevote(group, aba.pid, j, 1, 1))
    # own pre-vote arrives via the network in a real run; inject it
    aba.on_message(0, MSG_PREVOTE, _prevote(group, aba.pid, 0, 1, 1))
    state = aba._state(1)
    assert len(state.prevotes) == 3
    assert state.mainvote_sent  # quorum n-t = 3 reached


def test_prevote_share_must_match_sender(setup):
    group, ctx, aba = setup
    aba.propose(1)
    # party 2's share delivered under party 1's identity
    payload = _prevote(group, aba.pid, 2, 1, 1)
    aba.on_message(1, MSG_PREVOTE, payload)
    assert 1 not in aba._state(1).prevotes


def test_prevote_wrong_value_share_rejected(setup):
    group, ctx, aba = setup
    aba.propose(1)
    # share signed for value 0, message claims value 1: the example-slot
    # verification catches it immediately
    share = group.party(1).aba_signer.sign_share(prevote_string(aba.pid, 1, 0))
    aba.on_message(1, MSG_PREVOTE, (1, 1, None, None, share))
    assert 1 not in aba._state(1).prevotes
    assert 1 in aba._state(1).banned


def test_round2_prevote_requires_justification(setup):
    group, ctx, aba = setup
    aba.propose(1)
    aba.on_message(1, MSG_PREVOTE, _prevote(group, aba.pid, 1, 2, 1))
    assert 1 not in aba._state(2).prevotes  # r>1 without justification


def test_round2_hard_prevote_with_valid_justification(setup):
    group, ctx, aba = setup
    aba.propose(1)
    # forge a *valid* hard justification: threshold sig on round-1 pre-votes
    scheme = group.party(0).aba_scheme
    msg = prevote_string(aba.pid, 1, 1)
    shares = {j + 1: group.party(j).aba_signer.sign_share(msg) for j in range(3)}
    sig = scheme.combine(msg, shares)
    payload = (2, 1, ("hard", sig), None, group.party(1).aba_signer.sign_share(
        prevote_string(aba.pid, 2, 1)))
    aba.on_message(1, MSG_PREVOTE, payload)
    assert aba._state(2).prevotes == {1: 1}


def test_round2_hard_prevote_with_bogus_sig_rejected(setup):
    group, ctx, aba = setup
    aba.propose(1)
    payload = (2, 1, ("hard", b"not a signature"), None,
               group.party(1).aba_signer.sign_share(prevote_string(aba.pid, 2, 1)))
    aba.on_message(1, MSG_PREVOTE, payload)
    assert 1 not in aba._state(2).prevotes


def test_duplicate_prevotes_ignored(setup):
    group, ctx, aba = setup
    aba.propose(1)
    payload = _prevote(group, aba.pid, 1, 1, 1)
    aba.on_message(1, MSG_PREVOTE, payload)
    aba.on_message(1, MSG_PREVOTE, _prevote(group, aba.pid, 1, 1, 0))
    assert aba._state(1).prevotes[1] == 1  # first one counts


def test_mainvote_needs_threshold_justification(setup):
    group, ctx, aba = setup
    aba.propose(1)
    payload = _mainvote(group, aba.pid, 1, 1, 1, just=b"junk")
    aba.on_message(1, MSG_MAINVOTE, payload)
    assert 1 not in aba._state(1).mainvotes


def test_valid_mainvote_sets_hard_preference(setup):
    group, ctx, aba = setup
    aba.propose(0)
    scheme = group.party(0).aba_scheme
    msg = prevote_string(aba.pid, 1, 1)
    shares = {j + 1: group.party(j).aba_signer.sign_share(msg) for j in range(3)}
    sig = scheme.combine(msg, shares)
    aba.on_message(1, MSG_MAINVOTE, _mainvote(group, aba.pid, 1, 1, 1, just=sig))
    state = aba._state(1)
    assert state.mainvotes == {1: 1}
    assert state.hard == (1, sig)


def test_abstain_mainvote_requires_conflicting_prevotes(setup):
    group, ctx, aba = setup
    aba.propose(1)
    pv1 = _prevote(group, aba.pid, 1, 1, 1)
    # justification with two pre-votes for the SAME value: invalid
    bad_just = ((1, None, None, pv1[4]), (1, None, None, pv1[4]))
    aba.on_message(
        2, MSG_MAINVOTE, _mainvote(group, aba.pid, 2, 1, ABSTAIN, just=bad_just)
    )
    assert 2 not in aba._state(1).mainvotes
    # proper conflicting justification accepted
    pv0 = _prevote(group, aba.pid, 2, 1, 0)
    good_just = ((0, None, None, pv0[4]), (1, None, None, pv1[4]))
    aba.on_message(
        2, MSG_MAINVOTE, _mainvote(group, aba.pid, 2, 1, ABSTAIN, just=good_just)
    )
    assert aba._state(1).mainvotes == {2: ABSTAIN}


def test_invalid_coin_share_ignored(setup):
    group, ctx, aba = setup
    aba.propose(1)
    aba.on_message(1, MSG_COIN, (1, b"garbage"))
    assert aba._state(1).coin_shares == {}
    good = group.party(1).coin_holder.release(coin_name(aba.pid, 1))
    aba.on_message(1, MSG_COIN, (1, good))
    assert 2 in aba._state(1).coin_shares  # 1-based holder index


def test_coin_shares_of_consecutive_parties_are_all_kept(setup):
    """A share is filed under its holder index ``sender + 1``; the
    duplicate check must look there, not at index ``sender`` (which
    holds the share of party ``sender - 1``)."""
    group, ctx, aba = setup
    aba.propose(1)
    for j in (0, 1, 2):
        share = group.party(j).coin_holder.release(coin_name(aba.pid, 2))
        aba.on_message(j, MSG_COIN, (2, share))
    assert sorted(aba._state(2).coin_shares) == [1, 2, 3]


def test_relayed_coin_share_is_refused(setup):
    """Party 2 re-sending party 1's valid share as its own: filed under
    index 3 it would poison every later coin assembly."""
    group, ctx, aba = setup
    aba.propose(1)
    share = group.party(1).coin_holder.release(coin_name(aba.pid, 2))
    aba.on_message(2, MSG_COIN, (2, share))
    assert aba._state(2).coin_shares == {}


def test_decide_message_with_valid_certificate(setup):
    group, ctx, aba = setup
    aba.propose(0)
    scheme = group.party(0).aba_scheme
    msg = mainvote_string(aba.pid, 1, 1)
    shares = {j + 1: group.party(j).aba_signer.sign_share(msg) for j in range(3)}
    sig = scheme.combine(msg, shares)
    aba.on_message(1, MSG_DECIDE, (1, 1, sig, None))
    assert aba.decided.done
    assert aba.decided.value == (1, None)
    # the decision was relayed so laggards terminate too
    assert any(m[2] == MSG_DECIDE for m in ctx.sent)


def test_decide_message_with_bogus_certificate_rejected(setup):
    group, ctx, aba = setup
    aba.propose(0)
    aba.on_message(1, MSG_DECIDE, (1, 1, b"forged", None))
    assert not aba.decided.done


def test_garbage_payload_shapes_are_refused_at_the_router(setup):
    """Malformed tuples never reach a handler: the router refuses each
    against the declared schema and records it with its sender."""
    group, ctx, aba = setup
    aba.propose(0)
    mtypes = (MSG_PREVOTE, MSG_MAINVOTE, MSG_COIN, MSG_DECIDE)
    for mtype in mtypes:
        ctx.router.dispatch(1, aba.pid, mtype, ("bad",))
    assert [(sender, exc.mtype) for _, sender, exc in ctx.router.errors] == [
        (1, mtype) for mtype in mtypes
    ]
    assert not aba.decided.done
    assert aba._state(1).prevotes == {} and aba._state(1).coin_shares == {}
