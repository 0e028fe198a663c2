"""Sliding-window reliable links with authenticated acknowledgments.

The paper (Sec. 3) notes that SINTRA's point-to-point links ran over plain
TCP "and are therefore subject to a denial-of-service attack by sending
forged TCP acknowledgements.  It is planned to replace TCP by SINTRA's own
sliding-window implementation, which will provide authenticated
acknowledgments."  This module implements that planned component.

A :class:`SlidingWindowEndpoint` turns an *unreliable* datagram service
(loss, duplication, reordering — but not forgery-resistance) into the
reliable FIFO link the protocol stack assumes:

* data datagrams carry ``(session, seq, payload)`` and an HMAC under the
  pairwise link key, so an attacker who can inject datagrams cannot forge
  payloads;
* acknowledgments are *cumulative and authenticated*: a forged ACK cannot
  advance the sender's window, closing exactly the DoS the paper calls
  out (a TCP sender tricked by forged ACKs discards data the receiver
  never got — here the sender keeps retransmitting until a genuine ACK
  arrives);
* a fixed-size window bounds the data in flight; retransmission is driven
  by an explicit ``poll(now)`` so the implementation stays sans-I/O and
  runs under the simulator, asyncio, or direct-drive tests alike.

The endpoint is one *direction* of a link; a full duplex link is two
endpoints per side sharing the datagram service.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError, LinkOverflow, ProtocolError
from repro.crypto.hmac_auth import LinkAuthenticator

KIND_DATA = "dat"
KIND_ACK = "ack"

DEFAULT_WINDOW = 32
DEFAULT_RTO = 0.25


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
    """Send side: window, retransmission, authenticated-ACK validation."""

    def __init__(
        self,
        auth: LinkAuthenticator,
        session: bytes,
        window: int = DEFAULT_WINDOW,
        rto: float = DEFAULT_RTO,
        max_backlog: Optional[int] = None,
        overflow: str = "drop-oldest",
    ):
        if window < 1:
            raise ProtocolError("window must be at least 1")
        if overflow not in ("drop-oldest", "raise"):
            raise ProtocolError("overflow policy is 'drop-oldest' or 'raise'")
        self._auth = auth
        self.session = session
        self.window = window
        self.rto = rto
        self.max_backlog = max_backlog
        self.overflow = overflow
        self._next_seq = 0
        self._base = 0  # lowest unacknowledged sequence number
        self._backlog: List[bytes] = []
        self._inflight: Dict[int, Tuple[bytes, float]] = {}  # seq -> (payload, last tx)
        self.retransmissions = 0
        self.forged_acks = 0
        self.overflow_dropped = 0

    # -- outbound -----------------------------------------------------------------

    def send(self, payload: bytes, now: float) -> List[bytes]:
        """Queue ``payload``; returns datagrams to transmit now.

        A bounded sender (``max_backlog``) degrades under a peer that never
        acknowledges: ``drop-oldest`` discards the oldest backlog entry
        (counted in :attr:`overflow_dropped`) so one dead peer cannot
        exhaust memory, while ``raise`` surfaces :class:`LinkOverflow` to
        the caller.
        """
        if not isinstance(payload, (bytes, bytearray)):
            raise ProtocolError("payloads are byte strings")
        if self.max_backlog is not None and len(self._backlog) >= self.max_backlog:
            if self.overflow == "raise":
                raise LinkOverflow(
                    f"link backlog full ({self.max_backlog} frames unacknowledged)"
                )
            self._backlog.pop(0)
            self.overflow_dropped += 1
        self._backlog.append(bytes(payload))
        return self._fill_window(now)

    def _fill_window(self, now: float) -> List[bytes]:
        out: List[bytes] = []
        while self._backlog and len(self._inflight) < self.window:
            payload = self._backlog.pop(0)
            seq = self._next_seq
            self._next_seq += 1
            self._inflight[seq] = (payload, now)
            out.append(make_data_datagram(self._auth, self.session, seq, payload))
        return out

    def poll(self, now: float) -> List[bytes]:
        """Retransmit everything in flight whose RTO expired.

        The comparison carries a small slack so a timer firing exactly at
        the deadline retransmits despite floating-point rounding.
        """
        out: List[bytes] = []
        for seq, (payload, last) in sorted(self._inflight.items()):
            if now - last >= self.rto - 1e-9:
                self._inflight[seq] = (payload, now)
                self.retransmissions += 1
                out.append(make_data_datagram(self._auth, self.session, seq, payload))
        return out

    # -- session resumption ----------------------------------------------------------

    def resume(self, now: float) -> List[bytes]:
        """Retransmit everything in flight immediately (same session).

        Called after the carrier reconnects: frames unacknowledged at
        disconnect are re-sent without waiting for the RTO, and the
        receiver's intact per-session state suppresses any duplicates.
        """
        out: List[bytes] = []
        for seq, (payload, _) in sorted(self._inflight.items()):
            self._inflight[seq] = (payload, now)
            self.retransmissions += 1
            out.append(make_data_datagram(self._auth, self.session, seq, payload))
        out.extend(self._fill_window(now))
        return out

    def rebind(self, session: bytes, now: float) -> List[bytes]:
        """Renumber all unacknowledged traffic under a fresh ``session``.

        Called when the peer *instance* restarted (it announced a session
        this side has never seen, so its receive state is gone): every
        in-flight and backlogged payload is re-queued in order and the
        window restarts at sequence 0.  Delivery across a rebind is
        at-least-once — a payload whose ACK was lost may be delivered
        again — while within a session it is exactly-once FIFO.
        """
        pending = [payload for _, (payload, _) in sorted(self._inflight.items())]
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
        if cumulative > self._base:
            for seq in range(self._base, min(cumulative, self._next_seq)):
                self._inflight.pop(seq, None)
            self._base = min(cumulative, self._next_seq)
        return self._fill_window(now)

    @property
    def idle(self) -> bool:
        return not self._inflight and not self._backlog

    @property
    def next_timeout(self) -> Optional[float]:
        if not self._inflight:
            return None
        return min(last for _, last in self._inflight.values()) + self.rto


class SlidingWindowReceiver:
    """Receive side: verification, reordering buffer, cumulative ACKs."""

    def __init__(
        self,
        auth: LinkAuthenticator,
        session: bytes,
        deliver: Callable[[bytes], None],
        reorder_limit: int = 4 * DEFAULT_WINDOW,
    ):
        self._auth = auth
        self.session = session
        self._deliver = deliver
        self._expected = 0
        self._buffer: Dict[int, bytes] = {}
        self._reorder_limit = reorder_limit
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
        elif seq < self._expected + self._reorder_limit:
            self._buffer[seq] = payload
            while self._expected in self._buffer:
                self._deliver(self._buffer.pop(self._expected))
                self._expected += 1
        # Always re-ACK: the cumulative ACK also repairs lost ACKs.
        return [make_ack_datagram(self._auth, self.session, self._expected)]


class SlidingWindowEndpoint:
    """One direction of a link: a sender and the peer's receiver glue.

    ``transmit`` is the unreliable datagram service; ``deliver`` receives
    in-order payloads on the receiving side.
    """

    def __init__(
        self,
        auth: LinkAuthenticator,
        session: bytes,
        transmit: Callable[[bytes], None],
        deliver: Callable[[bytes], None],
        window: int = DEFAULT_WINDOW,
        rto: float = DEFAULT_RTO,
    ):
        self.sender = SlidingWindowSender(auth, session, window=window, rto=rto)
        self.receiver = SlidingWindowReceiver(auth, session, deliver)
        self._transmit = transmit

    def send(self, payload: bytes, now: float) -> None:
        for datagram in self.sender.send(payload, now):
            self._transmit(datagram)

    def poll(self, now: float) -> None:
        for datagram in self.sender.poll(now):
            self._transmit(datagram)

    def on_datagram(self, datagram: bytes, now: float) -> None:
        """Dispatch one raw datagram (data or ACK); malformed ones drop."""
        try:
            fields = decode(datagram)
        except EncodingError:
            return
        if not isinstance(fields, tuple) or not fields:
            return
        if fields[0] == KIND_DATA and len(fields) == 5:
            for ack in self.receiver.on_data(fields):
                self._transmit(ack)
        elif fields[0] == KIND_ACK and len(fields) == 4:
            for datagram_out in self.sender.on_ack(fields, now):
                self._transmit(datagram_out)
