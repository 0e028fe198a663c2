"""A lossy-datagram deployment: the protocol stack over sliding-window links.

The default simulator models the paper's TCP links as reliable FIFO pipes.
This runtime instead models an *unreliable datagram* network — independent
loss and duplication per datagram — and runs
:mod:`repro.net.sliding_window` underneath the protocol stack, i.e. the
configuration the paper planned ("replace TCP by SINTRA's own
sliding-window implementation").  The SINTRA protocols themselves are
untouched: they still see reliable FIFO authenticated links.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.net.runtime import SimRuntime
from repro.net.sliding_window import SlidingWindowEndpoint


class LossyLinkRuntime(SimRuntime):
    """A :class:`SimRuntime` whose links are sliding-window over loss.

    ``loss`` and ``duplicate`` are per-datagram probabilities; ``rto`` is
    the links' retransmission timeout in (simulated) seconds.
    """

    def __init__(
        self,
        *args,
        loss: float = 0.05,
        duplicate: float = 0.0,
        rto: float = 0.3,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.loss = loss
        self.duplicate = duplicate
        self.rto = rto
        #: directed pair -> (sending endpoint at src, receiving at dst)
        self._links: Dict[Tuple[int, int], Tuple[SlidingWindowEndpoint, SlidingWindowEndpoint]] = {}
        self._poll_scheduled: Dict[Tuple[int, int], float] = {}
        self.datagrams_sent = 0
        self.datagrams_lost = 0

    # -- link construction ---------------------------------------------------------

    def _link(self, src: int, dst: int):
        key = (src, dst)
        if key not in self._links:
            session = b"link-%d-%d" % (src, dst)
            auth = self.group.party(src).link_auth(dst)

            tx = SlidingWindowEndpoint(
                auth, session,
                transmit=lambda d, k=key: self._datagram(k[0], k[1], d),
                deliver=lambda p: None,
                rto=self.rto,
            )
            rx = SlidingWindowEndpoint(
                auth, session,
                transmit=lambda d, k=key: self._datagram(k[1], k[0], d),
                deliver=lambda frame, k=key: self._arrive(k[1], frame, k[0]),
                rto=self.rto,
            )
            self._links[key] = (tx, rx)
        return self._links[key]

    # -- frame path ---------------------------------------------------------------------

    def _dispatch(self, src: int, depart: float, send_tuple) -> None:
        dst, wire = send_tuple
        if self.faults.drops(src, depart):
            return
        self.messages_sent += 1
        self.bytes_sent += len(wire)
        if dst == src:
            self.sim.schedule_at(depart, self._arrive, dst, wire, src)
            return
        tx, _ = self._link(src, dst)
        self.sim.schedule_at(depart, self._link_send, src, dst, tx, wire)

    def _link_send(self, src: int, dst: int, tx: SlidingWindowEndpoint, wire: bytes) -> None:
        tx.send(wire, self.sim.now)
        self._schedule_poll(src, dst)

    # -- the unreliable datagram service -----------------------------------------------------

    def _datagram(self, src: int, dst: int, datagram: bytes) -> None:
        """Transmit one datagram with loss/duplication and latency."""
        self.datagrams_sent += 1
        copies = 2 if self.sim.rng.random() < self.duplicate else 1
        for _ in range(copies):
            if self.sim.rng.random() < self.loss:
                self.datagrams_lost += 1
                continue
            delay = self.latency.sample(src, dst, self.sim.rng, nbytes=len(datagram))
            delay += self.faults.extra_delay(
                src, dst, len(datagram), self.sim.now, self.sim.rng
            )
            self.sim.schedule(delay, self._datagram_arrive, src, dst, datagram)

    def _datagram_arrive(self, src: int, dst: int, datagram: bytes) -> None:
        # Data datagrams land at the receiving endpoint of (src, dst);
        # ACK datagrams land at the sending endpoint.  Both endpoints
        # ignore frames that are not theirs, so dispatch to both is safe,
        # but we can route exactly by direction:
        tx_fwd = self._links.get((src, dst))
        tx_rev = self._links.get((dst, src))
        if tx_fwd is not None:
            tx_fwd[1].on_datagram(datagram, self.sim.now)  # data for dst
        if tx_rev is not None:
            tx_rev[0].on_datagram(datagram, self.sim.now)  # ACKs for dst's sender
        self._schedule_poll(dst, src)
        self._schedule_poll(src, dst)

    # -- retransmission timers ----------------------------------------------------------------

    def _schedule_poll(self, src: int, dst: int) -> None:
        key = (src, dst)
        link = self._links.get(key)
        if link is None:
            return
        deadline = link[0].sender.next_timeout
        if deadline is None:
            return
        pending = self._poll_scheduled.get(key)
        if pending is not None and pending <= deadline + 1e-9 and pending > self.sim.now:
            return
        # never schedule at the current instant: a zero-delay reschedule
        # loop would freeze simulated time
        when = max(deadline, self.sim.now + 1e-6)
        self._poll_scheduled[key] = when
        self.sim.schedule_at(when, self._poll, src, dst, when)

    def _poll(self, src: int, dst: int, when: float) -> None:
        key = (src, dst)
        if self._poll_scheduled.get(key) == when:
            self._poll_scheduled.pop(key, None)
        link = self._links.get(key)
        if link is None:
            return
        link[0].poll(self.sim.now)
        self._schedule_poll(src, dst)
