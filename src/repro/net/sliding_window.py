"""Sliding-window reliable links with authenticated acknowledgments.

The paper (Sec. 3) notes that SINTRA's point-to-point links ran over plain
TCP "and are therefore subject to a denial-of-service attack by sending
forged TCP acknowledgements.  It is planned to replace TCP by SINTRA's own
sliding-window implementation, which will provide authenticated
acknowledgments."  This module implements that planned component, and it
is the one link layer both carriers run: :class:`SlidingWindowLink`
drives it for :class:`~repro.net.tcp.TcpNode` (over TCP framing) and for
:class:`~repro.net.lossy.LossyLinkRuntime` (over simulated datagrams).

It turns an *unreliable* datagram service (loss, duplication, reordering
— but not forgery-resistance) into the reliable FIFO link the protocol
stack assumes:

* data datagrams carry ``(session, seq, body)`` and an HMAC under the
  pairwise link key — the only MAC a message pays.  ``body`` is the
  packed ``(pid, mtype, payload)``; its sender is the link's peer
  (:mod:`repro.net.links` states the rule), never a field of the body;
* acknowledgments are *cumulative and authenticated*: a forged ACK cannot
  advance the sender's window, closing exactly the DoS the paper calls
  out (a TCP sender tricked by forged ACKs discards data the receiver
  never got — here the sender keeps retransmitting until a genuine ACK
  arrives);
* at most :data:`WINDOW` datagrams are in flight and :data:`MAX_BACKLOG`
  more wait behind them (drop-oldest beyond that, counted), so one dead
  peer cannot exhaust memory;
* the retransmission timeout is measured, per RFC 6298: SRTT and RTTVAR
  follow the delay of every cumulative ACK that covers a sequence sent
  once (Karn's rule: a re-sent sequence gives no sample), the timeout is
  ``SRTT + 4 * RTTVAR`` clamped to [:data:`RTO_MIN`, :data:`RTO_MAX`],
  starts at :data:`RTO_INITIAL` and doubles on every expiry.

:class:`SlidingWindowSender` and :class:`SlidingWindowReceiver` are
sans-I/O (every call takes ``now``); :class:`SlidingWindowLink` adds the one
datagram dispatch and the one retransmit timer, armed through the
carrier's ``call_at``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.encoding import encode
from repro.common.errors import ProtocolError
from repro.crypto.hmac_auth import LinkAuthenticator

KIND_DATA = "dat"
KIND_ACK = "ack"

#: data datagrams in flight per directed link
WINDOW = 64
#: payloads queued behind the window before the oldest is dropped
MAX_BACKLOG = 4096
#: how far ahead of the next expected sequence a receiver buffers
REORDER_LIMIT = 4 * WINDOW
#: the timeout before the first RTT sample, in seconds
RTO_INITIAL = 0.25
#: bounds of the measured (and backed-off) timeout, in seconds
RTO_MIN = 0.25
RTO_MAX = 1.0


def _data_tag(auth: LinkAuthenticator, session: bytes, seq: int, payload: bytes) -> bytes:
    return auth.tag(encode((KIND_DATA, session, seq, payload)))


def _ack_tag(auth: LinkAuthenticator, session: bytes, cumulative: int) -> bytes:
    return auth.tag(encode((KIND_ACK, session, cumulative)))


def make_data_datagram(
    auth: LinkAuthenticator, session: bytes, seq: int, payload: bytes
) -> bytes:
    return encode((KIND_DATA, session, seq, payload, _data_tag(auth, session, seq, payload)))


def make_ack_datagram(auth: LinkAuthenticator, session: bytes, cumulative: int) -> bytes:
    return encode((KIND_ACK, session, cumulative, _ack_tag(auth, session, cumulative)))


class SlidingWindowSender:
    """Send side: window, retransmission, authenticated-ACK validation,
    and the measured retransmission timeout (:attr:`rto`)."""

    def __init__(self, auth: LinkAuthenticator, session: bytes):
        self._auth = auth
        self.session = session
        self._next_seq = 0
        self._base = 0  # lowest unacknowledged sequence number
        self._backlog: List[bytes] = []
        # seq -> (payload, last transmission, re-sent since the first?)
        self._inflight: Dict[int, Tuple[bytes, float, bool]] = {}
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = RTO_INITIAL
        self.retransmissions = 0
        self.forged_acks = 0
        self.overflow_dropped = 0

    # -- outbound -----------------------------------------------------------------

    def send(self, payload: bytes, now: float) -> List[bytes]:
        """Queue ``payload``; returns datagrams to transmit now.

        A full backlog drops its oldest entry (counted in
        :attr:`overflow_dropped`): a peer that never acknowledges costs
        bounded memory, and the rest of the group makes progress.
        """
        if not isinstance(payload, (bytes, bytearray)):
            raise ProtocolError("payloads are byte strings")
        if len(self._backlog) >= MAX_BACKLOG:
            self._backlog.pop(0)
            self.overflow_dropped += 1
        self._backlog.append(bytes(payload))
        return self._fill_window(now)

    def _fill_window(self, now: float) -> List[bytes]:
        out: List[bytes] = []
        while self._backlog and len(self._inflight) < WINDOW:
            payload = self._backlog.pop(0)
            seq = self._next_seq
            self._next_seq += 1
            self._inflight[seq] = (payload, now, False)
            out.append(make_data_datagram(self._auth, self.session, seq, payload))
        return out

    def _resend(self, seqs: List[int], now: float) -> List[bytes]:
        out: List[bytes] = []
        for seq in seqs:
            payload = self._inflight[seq][0]
            self._inflight[seq] = (payload, now, True)
            self.retransmissions += 1
            out.append(make_data_datagram(self._auth, self.session, seq, payload))
        return out

    def poll(self, now: float) -> List[bytes]:
        """Retransmit everything in flight whose timeout expired, and
        double the timeout (up to :data:`RTO_MAX`) if anything did.

        The comparison carries a small slack so a timer firing exactly at
        the deadline retransmits despite floating-point rounding.
        """
        expired = [
            seq for seq, (_, last, _) in sorted(self._inflight.items())
            if now - last >= self.rto - 1e-9
        ]
        if expired:
            self.rto = min(RTO_MAX, 2 * self.rto)
        return self._resend(expired, now)

    # -- session resumption ----------------------------------------------------------

    def resume(self, now: float) -> List[bytes]:
        """Retransmit everything in flight immediately (same session).

        Called after the carrier reconnects: frames unacknowledged at
        disconnect are re-sent without waiting for the timeout, and the
        receiver's intact per-session state suppresses any duplicates.
        """
        return self._resend(sorted(self._inflight), now) + self._fill_window(now)

    def rebind(self, session: bytes, now: float) -> List[bytes]:
        """Renumber all unacknowledged traffic under a fresh ``session``.

        Called when the peer *instance* restarted (it announced a session
        this side has never seen, so its receive state is gone): every
        in-flight and backlogged payload is re-queued in order and the
        window restarts at sequence 0.  Delivery across a rebind is
        at-least-once — a payload whose ACK was lost may be delivered
        again — while within a session it is exactly-once FIFO.
        """
        pending = [payload for _, (payload, _, _) in sorted(self._inflight.items())]
        self.session = session
        self._next_seq = 0
        self._base = 0
        self._inflight = {}
        self._backlog = pending + self._backlog
        return self._fill_window(now)

    @property
    def backlog_depth(self) -> int:
        """Frames queued or unacknowledged (the link's memory footprint)."""
        return len(self._backlog) + len(self._inflight)

    # -- inbound ACKs ----------------------------------------------------------------

    def on_ack(self, datagram_fields: tuple, now: float) -> List[bytes]:
        """Process an ACK datagram's fields; returns new transmissions."""
        _, session, cumulative, tag = datagram_fields
        if session != self.session or not isinstance(cumulative, int):
            return []
        if not isinstance(tag, bytes) or not self._auth.verify(
            encode((KIND_ACK, session, cumulative)), tag
        ):
            self.forged_acks += 1  # the authenticated-ACK property
            return []
        top = min(cumulative, self._next_seq)
        sample: Optional[float] = None
        for seq in range(self._base, top):
            _, last, resent = self._inflight.pop(seq)
            if not resent:  # Karn: a re-sent sequence's ACK is ambiguous
                sample = now - last
        self._base = max(self._base, top)
        if sample is not None:
            self._measure(sample)
        return self._fill_window(now)

    def _measure(self, rtt: float) -> None:
        """RFC 6298, Sec. 2: fold one sample in; the backoff resets."""
        if self.srtt is None:
            self.srtt, self.rttvar = rtt, rtt / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.rto = min(RTO_MAX, max(RTO_MIN, self.srtt + 4 * self.rttvar))

    @property
    def idle(self) -> bool:
        return not self._inflight and not self._backlog

    @property
    def next_timeout(self) -> Optional[float]:
        if not self._inflight:
            return None
        return min(last for _, last, _ in self._inflight.values()) + self.rto


class SlidingWindowReceiver:
    """Receive side: verification, reordering buffer, cumulative ACKs."""

    def __init__(
        self, auth: LinkAuthenticator, session: bytes, deliver: Callable[[bytes], None]
    ):
        self._auth = auth
        self.session = session
        self._deliver = deliver
        self._expected = 0
        self._buffer: Dict[int, bytes] = {}
        self.forged_data = 0
        self.duplicates = 0

    def on_data(self, datagram_fields: tuple) -> List[bytes]:
        """Process a data datagram's fields; returns ACK datagrams."""
        _, session, seq, payload, tag = datagram_fields
        if session != self.session or not isinstance(seq, int) or seq < 0:
            return []
        if not isinstance(payload, bytes) or not isinstance(tag, bytes):
            return []
        if not self._auth.verify(encode((KIND_DATA, session, seq, payload)), tag):
            self.forged_data += 1
            return []
        if seq < self._expected or seq in self._buffer:
            self.duplicates += 1
        elif seq < self._expected + REORDER_LIMIT:
            self._buffer[seq] = payload
            while self._expected in self._buffer:
                self._deliver(self._buffer.pop(self._expected))
                self._expected += 1
        # Always re-ACK: the cumulative ACK also repairs lost ACKs.
        return [make_ack_datagram(self._auth, self.session, self._expected)]


class SlidingWindowLink:
    """This party's end of the link to one peer, driven for a carrier.

    It owns the sender of our data to the peer (session ``session``), the
    receiver of the peer's data (:meth:`listen` opens it on the session
    the peer announced), one dispatch of inbound datagrams by kind, and
    one retransmit timer.  The carrier supplies ``transmit`` (one
    datagram to the peer, unreliably), ``deliver`` (one in-order body
    from the peer), ``clock`` and ``call_at(when, fn, *args)`` — the
    simulator's ``schedule_at`` or the asyncio loop's ``call_at``.

    While :attr:`connected` is false (a TCP carrier between connections)
    the timer retransmits nothing; the carrier calls :meth:`resume` once
    it is back.
    """

    def __init__(
        self,
        auth: LinkAuthenticator,
        session: bytes,
        transmit: Callable[[bytes], None],
        deliver: Callable[[bytes], None],
        clock: Callable[[], float],
        call_at: Callable[..., object],
    ):
        self._auth = auth
        self._transmit = transmit
        self._deliver = deliver
        self._clock = clock
        self._call_at = call_at
        self.sender = SlidingWindowSender(auth, session)
        self.receiver: Optional[SlidingWindowReceiver] = None
        self.connected = True
        self._timer_at: Optional[float] = None  # the one live timer's deadline
        self._closed = False

    def listen(self, session: bytes) -> None:
        """Receive the peer's data on ``session`` (fresh receive state)."""
        self.receiver = SlidingWindowReceiver(self._auth, session, self._deliver)

    # -- outbound -------------------------------------------------------------------

    def send(self, body: bytes) -> None:
        self._emit(self.sender.send(body, self._clock()))

    def resume(self) -> None:
        """The carrier is back: re-send everything in flight now."""
        self._emit(self.sender.resume(self._clock()))

    def rebind(self, session: bytes) -> None:
        """The peer restarted: renumber unacknowledged traffic."""
        self._emit(self.sender.rebind(session, self._clock()))

    def _emit(self, datagrams: List[bytes]) -> None:
        for datagram in datagrams:
            self._transmit(datagram)
        self._arm()

    # -- inbound --------------------------------------------------------------------

    def on_datagram(self, fields: tuple) -> bool:
        """Dispatch one decoded datagram from the peer by kind; returns
        whether it was a window datagram at all."""
        kind = fields[0] if fields else None
        if kind == KIND_DATA and len(fields) == 5:
            if self.receiver is not None:
                for ack in self.receiver.on_data(fields):
                    self._transmit(ack)
            return True
        if kind == KIND_ACK and len(fields) == 4:
            self._emit(self.sender.on_ack(fields, self._clock()))
            return True
        return False

    # -- the retransmit timer -------------------------------------------------------

    def _arm(self) -> None:
        deadline = self.sender.next_timeout
        if deadline is None or self._closed:
            return
        now = self._clock()
        pending = self._timer_at
        if pending is not None and now < pending <= deadline + 1e-9:
            return  # the live timer fires first and re-arms
        # never at the current instant: a zero-delay loop would freeze
        # simulated time
        self._start_timer(max(deadline, now + 1e-4))

    def _start_timer(self, when: float) -> None:
        self._timer_at = when
        self._call_at(when, self._expire, when)

    def _expire(self, when: float) -> None:
        if when != self._timer_at or self._closed:
            return  # superseded by an earlier deadline
        self._timer_at = None
        if not self.connected:
            # no carrier: look again later (resume() covers the reconnect)
            self._start_timer(self._clock() + self.sender.rto)
            return
        self._emit(self.sender.poll(self._clock()))

    def close(self) -> None:
        """Stop the timer for good (the carrier shuts down)."""
        self._closed = True
        self._timer_at = None
