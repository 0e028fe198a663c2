"""The ``t + 1`` reply vote (repro.client.protocol.ReplyVote).

The edge cases that matter for safety: exactly ``t`` Byzantine repliers
must never decide a forged value, a vote split across two candidates must
wait for a real quorum, and one replica can never contribute more than a
single ballot no matter how often (or how variously) it replies.
"""

import pytest

from repro.client.protocol import (
    STATUS_OK,
    STATUS_OVERLOADED,
    ReplyVote,
    check_reply_frame,
    check_request_frame,
    make_envelope,
    parse_envelope,
)

T = 1  # the n=4 group's fault threshold; votes need t + 1 = 2


def test_exactly_t_byzantine_replies_cannot_decide():
    """t forged replies (even byte-identical ones) never win the vote;
    the decision waits for t + 1 honest matches."""
    vote = ReplyVote(T + 1)
    assert vote.add(0, STATUS_OK, b"forged") is None  # the t Byzantine
    assert vote.add(1, STATUS_OK, b"real") is None
    winner = vote.add(2, STATUS_OK, b"real")
    assert winner == b"real"
    assert vote.winner == b"real"
    assert vote.conflicting_replicas() == 1  # the forger is visible


def test_split_across_two_candidates_waits_for_quorum():
    """One ballot for each of two values decides nothing; the quorum
    forms only when a second replica matches one of them."""
    vote = ReplyVote(T + 1)
    assert vote.add(0, STATUS_OK, b"alpha") is None
    assert vote.add(1, STATUS_OK, b"beta") is None
    assert vote.winner is None
    assert vote.add(2, STATUS_OK, b"beta") == b"beta"


def test_duplicate_replies_from_one_replica_count_once():
    """A replica retransmitting (or flooding) the same reply gains no
    extra voting weight — latest-wins keeps it at one ballot."""
    vote = ReplyVote(T + 1)
    for _ in range(5):
        assert vote.add(0, STATUS_OK, b"spam") is None
    assert len(vote) == 1
    # Even changing its story does not help: the new ballot replaces the
    # old one instead of accumulating.
    assert vote.add(0, STATUS_OK, b"other") is None
    assert len(vote) == 1
    assert vote.add(1, STATUS_OK, b"other") == b"other"


def test_overloaded_ballots_do_not_count_toward_ok_quorum():
    vote = ReplyVote(T + 1)
    assert vote.add(0, STATUS_OVERLOADED, b"") is None
    assert vote.add(1, STATUS_OVERLOADED, b"") is None
    assert vote.add(2, STATUS_OVERLOADED, b"") is None
    assert vote.winner is None
    assert vote.overloaded_replicas() == 3
    # A later OK from a shed replica upgrades its ballot (still one vote).
    assert vote.add(0, STATUS_OK, b"v") is None
    assert vote.add(1, STATUS_OK, b"v") == b"v"
    assert vote.overloaded_replicas() == 1


def test_vote_needs_at_least_one():
    with pytest.raises(ValueError):
        ReplyVote(0)


def test_envelope_round_trip_and_rejection():
    data = make_envelope("alice", 7, b"add:3")
    assert parse_envelope(data) == ("alice", 7, b"add:3")
    # Raw service commands are not envelopes.
    assert parse_envelope(b"add:3") is None
    assert parse_envelope(b"") is None


def test_frame_validators_reject_malformed_input():
    assert check_request_frame(("crq", "c", 0, b"x")) == ("c", 0, b"x")
    assert check_request_frame(("crq", "c", -1, b"x")) is None
    assert check_request_frame(("crq", 3, 0, b"x")) is None
    assert check_request_frame(("nope", "c", 0, b"x")) is None
    # Every reply carries the membership view; the pre-membership
    # 4-field frame is refused.
    assert check_reply_frame(("crp", 0, STATUS_OK, b"r")) is None
    assert check_reply_frame(("crp", 0, 99, b"r", 0, b"")) is None
    assert check_reply_frame(("crp", "x", STATUS_OK, b"r", 0, b"")) is None
    # Membership-tagged replies carry (epoch, roster digest).
    assert check_reply_frame(("crp", 1, STATUS_OK, b"r", 3, b"d" * 8)) == (
        1, STATUS_OK, b"r", 3, b"d" * 8)
    assert check_reply_frame(("crp", 1, STATUS_OK, b"r", -1, b"d")) is None
    assert check_reply_frame(("crp", 1, STATUS_OK, b"r", "e", b"d")) is None
