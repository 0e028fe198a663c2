"""A lossy-datagram deployment: the protocol stack over sliding-window links.

The default simulator models the paper's TCP links as reliable FIFO pipes.
This runtime instead models an *unreliable datagram* network — independent
loss and duplication per datagram — and runs
:mod:`repro.net.sliding_window` underneath the protocol stack, i.e. the
configuration the paper planned ("replace TCP by SINTRA's own
sliding-window implementation").  The SINTRA protocols themselves are
untouched: they still see reliable FIFO authenticated links.

It speaks the TCP mesh's datagram: each party drives one
:class:`~repro.net.sliding_window.SlidingWindowLink` per peer, the
``dat`` payload is the packed message body, MACed once under the pairwise
key, and its sender is the link it arrived on (:mod:`repro.net.links`).
The simulator's sealed ``(sender, tag, body)`` envelope is not used here.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Tuple

from repro.common.encoding import decode
from repro.common.errors import EncodingError
from repro.net.runtime import SimRuntime
from repro.net.sliding_window import SlidingWindowLink


class LossyLinkRuntime(SimRuntime):
    """A :class:`SimRuntime` whose links are sliding-window over loss.

    ``loss`` and ``duplicate`` are per-datagram probabilities.
    """

    def __init__(self, *args, loss: float = 0.05, duplicate: float = 0.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.loss = loss
        self.duplicate = duplicate
        self.datagrams_sent = 0
        self.datagrams_lost = 0
        n = self.group.n
        #: (party, peer) -> the party's end of its link to the peer
        self._links: Dict[Tuple[int, int], SlidingWindowLink] = {}
        for a in range(n):
            for b in range(n):
                if a != b:
                    link = SlidingWindowLink(
                        self.group.party(a).link_auth(b),
                        b"link-%d-%d" % (a, b),
                        transmit=functools.partial(self._datagram, a, b),
                        deliver=functools.partial(self._arrive_body, a, b),
                        clock=lambda: self.sim.now,
                        call_at=self.sim.schedule_at,
                    )
                    link.listen(b"link-%d-%d" % (b, a))
                    self._links[(a, b)] = link

    @property
    def retransmissions(self) -> int:
        """Data datagrams re-sent by the links' timers, over all links."""
        return sum(link.sender.retransmissions for link in self._links.values())

    # -- frame path ---------------------------------------------------------------------

    def seal(self, crypto: Any, dst: int, body: bytes) -> bytes:
        return body  # the link's data tag is the message's one MAC

    def _dispatch(self, src: int, depart: float, send_tuple) -> None:
        dst, body = send_tuple
        if self.faults.drops(src, depart):
            return
        self.messages_sent += 1
        self.bytes_sent += len(body)
        if dst == src:
            self.sim.schedule_at(depart, self._arrive_body, dst, src, body)
        else:
            self.sim.schedule_at(depart, self._links[(src, dst)].send, body)

    def _arrive_body(self, dst: int, src: int, body: bytes) -> None:
        self.nodes[dst].process(lambda: self._route(dst, src, body), self._dispatch)

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
        """One datagram off the wire from ``src``, at ``dst``'s end."""
        try:
            fields = decode(datagram)
        except EncodingError:
            return
        if isinstance(fields, tuple):
            self._links[(dst, src)].on_datagram(fields)
