"""Sliding-window links: reliability over loss, authenticated ACKs
(the DoS fix the paper's Sec. 3 plans), reordering, duplication, and
the measured retransmission timeout (RFC 6298, Karn's rule)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError, ProtocolError
from repro.crypto.hmac_auth import KEY_BYTES, LinkAuthenticator
from repro.net.sliding_window import (
    MAX_BACKLOG,
    RTO_INITIAL,
    RTO_MAX,
    RTO_MIN,
    WINDOW,
    SlidingWindowLink,
    SlidingWindowSender,
    make_ack_datagram,
    make_data_datagram,
)

AUTH = LinkAuthenticator(b"k" * KEY_BYTES)
SESSION = b"link-0-1"


def feed(link, datagram):
    """Hand ``link`` one raw datagram, as a carrier does."""
    try:
        fields = decode(datagram)
    except EncodingError:
        return
    if isinstance(fields, tuple):
        link.on_datagram(fields)


class Harness:
    """Two link ends joined by a configurable lossy datagram service,
    with a step clock that fires their retransmit timers."""

    def __init__(self, loss=0.0, dup=0.0, reorder=0.0, seed=0):
        self.rng = random.Random(seed)
        self.loss, self.dup, self.reorder = loss, dup, reorder
        self.delivered = []
        self.a_to_b = []  # in-flight datagrams
        self.b_to_a = []
        self.timers = []  # (when, fn, args) handed to call_at
        self.now = 0.0
        self.a = self._end(self.a_to_b.append, lambda p: None)
        self.b = self._end(self.b_to_a.append, self.delivered.append)

    def _end(self, transmit, deliver):
        link = SlidingWindowLink(
            AUTH, SESSION, transmit, deliver, clock=lambda: self.now,
            call_at=lambda when, fn, *args: self.timers.append((when, fn, args)),
        )
        link.listen(SESSION)
        return link

    def fire_timers(self):
        while due := [t for t in self.timers if t[0] <= self.now]:
            for timer in due:
                self.timers.remove(timer)
                timer[1](*timer[2])

    def _channel_step(self, queue, destination):
        deliverable, queue[:] = queue[:], []
        for datagram in deliverable:
            if self.rng.random() < self.loss:
                continue
            copies = 2 if self.rng.random() < self.dup else 1
            for _ in range(copies):
                feed(destination, datagram)

    def run(self, rounds=400):
        for _ in range(rounds):
            self.now += 0.05
            if self.rng.random() < self.reorder:
                self.rng.shuffle(self.a_to_b)
                self.rng.shuffle(self.b_to_a)
            self._channel_step(self.a_to_b, self.b)
            self._channel_step(self.b_to_a, self.a)
            self.fire_timers()
            if self.a.sender.idle and not self.a_to_b and not self.b_to_a:
                break


def test_in_order_delivery_no_loss():
    h = Harness()
    msgs = [b"m%d" % i for i in range(20)]
    for m in msgs:
        h.a.send(m)
    h.run()
    assert h.delivered == msgs
    assert h.a.sender.retransmissions == 0


@given(
    seed=st.integers(0, 10 ** 6),
    loss=st.floats(0.0, 0.5),
    dup=st.floats(0.0, 0.3),
    reorder=st.floats(0.0, 1.0),
    count=st.integers(1, 40),
)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_reliable_fifo_over_lossy_channel(seed, loss, dup, reorder, count):
    """Exactly-once, in-order delivery under arbitrary loss/dup/reorder."""
    h = Harness(loss=loss, dup=dup, reorder=reorder, seed=seed)
    msgs = [b"p%03d" % i for i in range(count)]
    for m in msgs:
        h.a.send(m)
    h.run(rounds=3000)
    assert h.delivered == msgs
    assert h.a.sender.idle


def test_window_bounds_inflight():
    sender = SlidingWindowSender(AUTH, SESSION)
    out = []
    for i in range(WINDOW + 6):
        out += sender.send(b"x%d" % i, 0.0)
    assert len(out) == WINDOW  # only the window's worth transmitted
    assert len(sender._inflight) == WINDOW


def test_forged_ack_does_not_advance_window():
    """The paper's planned fix: forged acknowledgments are rejected, so an
    attacker cannot make the sender discard undelivered data."""
    sender = SlidingWindowSender(AUTH, SESSION)
    sender.send(b"important", 0.0)
    forged = decode(make_ack_datagram(LinkAuthenticator(b"x" * KEY_BYTES), SESSION, 1))
    sender.on_ack(forged, 0.0)
    assert sender.forged_acks == 1
    assert not sender.idle  # data still in flight
    # the sender keeps retransmitting until a genuine ACK arrives
    assert sender.poll(1.0)
    genuine = decode(make_ack_datagram(AUTH, SESSION, 1))
    sender.on_ack(genuine, 1.0)
    assert sender.idle


def test_forged_data_rejected():
    delivered = []
    h = Harness()
    wrong_key = LinkAuthenticator(b"y" * KEY_BYTES)
    forged = make_data_datagram(wrong_key, SESSION, 0, b"evil")
    feed(h.b, forged)
    assert h.b.receiver.forged_data == 1
    assert h.delivered == []


def test_tampered_payload_rejected():
    h = Harness()
    good = decode(make_data_datagram(AUTH, SESSION, 0, b"real"))
    tampered = encode((good[0], good[1], good[2], b"fake", good[4]))
    feed(h.b, tampered)
    assert h.delivered == []


def test_wrong_session_ignored():
    sender = SlidingWindowSender(AUTH, SESSION)
    sender.send(b"x", 0.0)
    other = decode(make_ack_datagram(AUTH, b"other-session", 1))
    sender.on_ack(other, 0.0)
    assert not sender.idle


def test_duplicate_data_counted_and_reacked():
    h = Harness()
    datagram = make_data_datagram(AUTH, SESSION, 0, b"once")
    feed(h.b, datagram)
    feed(h.b, datagram)
    assert h.delivered == [b"once"]
    assert h.b.receiver.duplicates == 1
    # both receipts produced a cumulative ACK (ACK repair)
    assert len(h.b_to_a) == 2


def test_retransmission_counter():
    h = Harness(loss=1.0)  # everything dropped
    h.a.send(b"void")
    h.run(rounds=40)  # 2 s: expiries at 0.25, 0.75 and 1.75 (backoff)
    assert h.a.sender.retransmissions == 3
    assert h.a.sender.rto == min(RTO_MAX, 8 * RTO_INITIAL)


def test_malformed_datagrams_dropped():
    h = Harness()
    for junk in (b"garbage", encode(("dat", 1)), encode(None), encode(("zzz", 1, 2, 3))):
        feed(h.a, junk)
        feed(h.b, junk)
    assert h.delivered == []


def test_payload_type_checked():
    sender = SlidingWindowSender(AUTH, SESSION)
    with pytest.raises(ProtocolError):
        sender.send("text", 0.0)  # type: ignore[arg-type]


def test_next_timeout_tracking():
    sender = SlidingWindowSender(AUTH, SESSION)
    assert sender.next_timeout is None
    sender.send(b"x", 1.0)
    assert sender.next_timeout == pytest.approx(1.0 + RTO_INITIAL)


# -- session resumption and bounded backlogs (the resilient TCP runtime) --------


def _receiver_for(sender, delivered):
    from repro.net.sliding_window import SlidingWindowReceiver

    return SlidingWindowReceiver(AUTH, sender.session, delivered.append)


def test_resume_retransmits_all_inflight_immediately():
    sender = SlidingWindowSender(AUTH, SESSION)
    for k in range(3):
        sender.send(b"m%d" % k, now=0.0)
    # long before the RTO, a reconnect resumes the session: every
    # unacknowledged frame is re-sent without waiting for the timer
    datagrams = sender.resume(now=0.1)
    assert len(datagrams) == 3
    assert sender.retransmissions == 3
    delivered = []
    receiver = _receiver_for(sender, delivered)
    for d in datagrams:
        receiver.on_data(decode(d))
    assert delivered == [b"m0", b"m1", b"m2"]


def test_resume_duplicates_are_suppressed_by_receiver():
    sender = SlidingWindowSender(AUTH, SESSION)
    originals = sender.send(b"payload", now=0.0)
    delivered = []
    receiver = _receiver_for(sender, delivered)
    receiver.on_data(decode(originals[0]))
    # the ACK is lost; after reconnect the sender resumes and re-sends
    for d in sender.resume(now=0.5):
        receiver.on_data(decode(d))
    assert delivered == [b"payload"]
    assert receiver.duplicates == 1


def test_rebind_renumbers_unacked_traffic_under_new_session():
    sender = SlidingWindowSender(AUTH, SESSION)
    count = WINDOW + 3
    out = []
    for k in range(count):
        out += sender.send(b"m%d" % k, now=0.0)
    assert len(out) == WINDOW  # a full window: three payloads backlogged
    # the peer restarted: its receive state is gone, so renumber
    datagrams = sender.rebind(b"fresh-session", now=1.0)
    assert sender.session == b"fresh-session"
    delivered = []
    receiver = _receiver_for(sender, delivered)
    acks = []
    while datagrams:
        for d in datagrams:
            acks += receiver.on_data(decode(d))
        datagrams = []
        for a in acks:
            datagrams += sender.on_ack(decode(a), now=1.0)
        acks = []
    assert delivered == [b"m%d" % k for k in range(count)]  # order preserved


def test_bounded_backlog_drop_oldest_policy():
    sender = SlidingWindowSender(AUTH, SESSION)
    for k in range(WINDOW):
        sender.send(b"w%d" % k, now=0.0)  # fills the window
    for k in range(MAX_BACKLOG + 2):
        sender.send(b"b%d" % k, now=0.0)
    assert sender.overflow_dropped == 2  # b0, b1 degraded away
    assert sender.backlog_depth == WINDOW + MAX_BACKLOG
    assert sender._backlog[0] == b"b2"


# -- the measured retransmission timeout (RFC 6298) ------------------------------


def _ack(sender, cumulative, now):
    return sender.on_ack(decode(make_ack_datagram(AUTH, sender.session, cumulative)), now)


def test_first_sample_and_smoothing_follow_rfc6298():
    sender = SlidingWindowSender(AUTH, SESSION)
    assert (sender.srtt, sender.rto) == (None, RTO_INITIAL)
    sender.send(b"a", 0.0)
    _ack(sender, 1, 0.1)
    assert (sender.srtt, sender.rttvar) == (pytest.approx(0.1), pytest.approx(0.05))
    assert sender.rto == pytest.approx(0.1 + 4 * 0.05)
    sender.send(b"b", 1.0)
    _ack(sender, 2, 1.3)  # R = 0.3
    assert sender.rttvar == pytest.approx(0.75 * 0.05 + 0.25 * 0.2)
    assert sender.srtt == pytest.approx(0.875 * 0.1 + 0.125 * 0.3)
    assert sender.rto == pytest.approx(sender.srtt + 4 * sender.rttvar)


def test_cumulative_ack_samples_its_newest_fresh_sequence():
    sender = SlidingWindowSender(AUTH, SESSION)
    sender.send(b"a", 0.0)
    sender.send(b"b", 0.3)
    _ack(sender, 2, 0.4)  # covers both: the sample is b's 0.1, not a's 0.4
    assert sender.srtt == pytest.approx(0.1)


def test_karn_retransmitted_sequence_gives_no_sample():
    sender = SlidingWindowSender(AUTH, SESSION)
    sender.send(b"a", 0.0)
    _ack(sender, 1, 0.1)
    assert sender.srtt == pytest.approx(0.1)
    srtt, rttvar = sender.srtt, sender.rttvar
    sender.send(b"b", 1.0)
    assert sender.poll(1.0 + sender.rto)  # b re-sent by the timer
    _ack(sender, 2, 3.0)  # whose copy is this ACK for?  no sample
    sender.send(b"c", 4.0)
    assert sender.resume(4.1)  # c re-sent on reconnect
    _ack(sender, 3, 4.5)
    assert (sender.srtt, sender.rttvar) == (srtt, rttvar)
    assert sender.retransmissions == 2


def test_timeout_doubles_on_expiry_and_resets_on_fresh_sample():
    sender = SlidingWindowSender(AUTH, SESSION)
    sender.send(b"a", 0.0)
    assert sender.poll(0.1) == []  # not yet expired: no backoff
    assert sender.rto == RTO_INITIAL
    assert sender.poll(RTO_INITIAL)
    assert sender.rto == 2 * RTO_INITIAL
    assert sender.poll(3 * RTO_INITIAL)
    assert sender.rto == 4 * RTO_INITIAL
    _ack(sender, 1, 1.0)  # retransmitted: the backoff stays
    assert sender.rto == 4 * RTO_INITIAL
    sender.send(b"b", 2.0)
    _ack(sender, 2, 2.1)  # a fresh sample resets it
    assert sender.rto == pytest.approx(0.1 + 4 * 0.05)


def test_timeout_floor_and_cap_hold():
    sender = SlidingWindowSender(AUTH, SESSION)
    sender.send(b"a", 0.0)
    now = 0.0
    for _ in range(12):
        now += sender.rto
        assert sender.poll(now)
    assert sender.rto == RTO_MAX
    _ack(sender, 1, now)
    sender.send(b"b", 100.0)
    _ack(sender, 2, 100.0001)  # LAN-fast: the floor holds
    assert sender.rto == RTO_MIN
    sender.send(b"c", 200.0)
    _ack(sender, 3, 260.0)  # a minute: the cap holds
    assert sender.rto == RTO_MAX


def test_link_timer_arms_through_call_at_and_waits_for_a_carrier():
    h = Harness(loss=1.0)
    h.a.connected = False
    h.a.send(b"queued")
    assert [when for when, _, _ in h.timers] == [pytest.approx(RTO_INITIAL)]
    h.run(rounds=20)  # 1 s without a carrier: nothing re-sent, no backoff
    assert h.a.sender.retransmissions == 0
    assert h.a.sender.rto == RTO_INITIAL
    h.a.connected = True
    h.a.resume()
    assert h.a.sender.retransmissions == 1
    h.a.close()
    h.run(rounds=40)
    assert h.a.sender.retransmissions == 1  # a closed link's timer is dead
