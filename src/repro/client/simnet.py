"""Simulated client network: external clients over the sim runtime.

Clients live *outside* the replica group — they are not simulated nodes,
have no replica CPU model, and see the group only through request/reply
frames with independently sampled latency.  This module wires
:class:`~repro.client.client.SintraClient` to a
:class:`~repro.net.runtime.SimRuntime`:

* request delivery runs the replica's
  :class:`~repro.client.server.RequestServer` handler *as node work*
  (``run_on_node``), so submissions enter the atomic channel on the
  replica's own clock, exactly like its protocol messages;
* latency for both directions is drawn from the dedicated seeded stream
  ``sim.derive("clientnet")`` — client traffic never perturbs the
  group's latency sampling, keeping existing seeds bit-identical;
* ``request_taps``/``reply_taps`` intercept frames per direction (return
  ``None`` to pass, :data:`DROP` to drop, or a replacement tuple) — the
  hook Byzantine-reply and lossy-edge tests plug into;
* ``detach(replica)`` models a crashed replica: frames to and from it
  vanish until ``attach`` is called again.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.client.client import SintraClient
from repro.client.server import RequestServer
from repro.core.protocol import Timer
from repro.net.runtime import SimRuntime

#: sentinel a tap returns to drop the frame
DROP = object()

#: ``tap(replica, client_id, seq, command)`` -> None | DROP | (client_id, seq, command)
RequestTap = Callable[[int, str, int, bytes], Any]
#: ``tap(replica, client_id, seq, status, result)`` -> None | DROP | (status, result)
ReplyTap = Callable[[int, str, int, int, bytes], Any]

#: one-way client <-> replica latency bounds (seconds), drawn uniformly
MIN_LATENCY = 0.002
MAX_LATENCY = 0.01


class SimClientNetwork:
    """The client-facing edge of a simulated group."""

    def __init__(self, runtime: SimRuntime):
        self.runtime = runtime
        self.n = runtime.group.n
        self.t = runtime.group.t
        self._rng = runtime.sim.derive("clientnet")
        self._servers: Dict[int, RequestServer] = {}
        self._links: List["SimClientLink"] = []
        self.request_taps: List[RequestTap] = []
        self.reply_taps: List[ReplyTap] = []

    # -- replica registry ----------------------------------------------------------

    def attach(self, replica: int, server: RequestServer) -> None:
        """Expose ``replica``'s request server to clients (or re-expose a
        restarted one — existing client sessions re-register on it)."""
        self._servers[replica] = server
        for link in self._links:
            link._register_on(replica, server)

    def detach(self, replica: int) -> None:
        """Crash ``replica`` from the clients' point of view: frames in
        either direction are dropped until it is attached again."""
        self._servers.pop(replica, None)

    def attached(self, replica: int) -> bool:
        return replica in self._servers

    # -- client construction ---------------------------------------------------------

    def link(self, client_id: str) -> "SimClientLink":
        link = SimClientLink(self, client_id)
        self._links.append(link)
        for replica, server in self._servers.items():
            link._register_on(replica, server)
        return link

    def connect(self, client_id: str, **client_kwargs: Any) -> SintraClient:
        """A ready-to-use client with sessions on every attached replica."""
        link = self.link(client_id)
        client_kwargs.setdefault("obs", self.runtime.obs)
        client = SintraClient(link, client_id, **client_kwargs)
        link.client = client
        return client

    # -- frame transfer --------------------------------------------------------------

    def _delay(self) -> float:
        return self._rng.uniform(MIN_LATENCY, MAX_LATENCY)

    def _deliver_request(self, replica: int, client_id: str, seq: int,
                         command: bytes) -> None:
        for tap in self.request_taps:
            verdict = tap(replica, client_id, seq, command)
            if verdict is DROP:
                return
            if verdict is not None:
                client_id, seq, command = verdict

        def arrive(client_id=client_id, seq=seq, command=command) -> None:
            server = self._servers.get(replica)
            if server is None:  # crashed while the frame was in flight
                return
            self.runtime.run_on_node(
                replica,
                lambda: server.handle_request(client_id, seq, command),
            )

        self.runtime.sim.schedule(self._delay(), arrive)

    def _deliver_reply(self, link: "SimClientLink", replica: int, seq: int,
                       status: int, result: bytes, epoch: int = 0,
                       digest: bytes = b"") -> None:
        if replica not in self._servers:
            return
        for tap in self.reply_taps:
            verdict = tap(replica, link.client_id, seq, status, result)
            if verdict is DROP:
                return
            if verdict is not None:
                status, result = verdict

        def arrive(status=status, result=result) -> None:
            if link.client is not None:
                link.client.on_reply(replica, seq, status, result,
                                     epoch, digest)

        self.runtime.sim.schedule(self._delay(), arrive)


class SimClientLink:
    """One client's transport handle (the :class:`ClientLink` protocol)."""

    def __init__(self, net: SimClientNetwork, client_id: str):
        self.net = net
        self.client_id = client_id
        self.n = net.n
        self.t = net.t
        self.client: Optional[SintraClient] = None

    def _register_on(self, replica: int, server: RequestServer) -> None:
        def send_reply(seq: int, status: int, result: bytes,
                       epoch: int, digest: bytes,
                       _replica: int = replica) -> None:
            self.net._deliver_reply(self, _replica, seq, status, result,
                                    epoch, digest)

        server.register_client(self.client_id, send_reply)

    # -- ClientLink ------------------------------------------------------------------

    def send(self, replica: int, seq: int, command: bytes) -> None:
        self.net._deliver_request(replica, self.client_id, seq, command)

    def set_timer(self, delay: float, fn: Callable[[], None]) -> Timer:
        timer = Timer()

        def fire() -> None:
            if timer.active:
                fn()

        self.net.runtime.sim.schedule(delay, fire)
        return timer

    def new_future(self) -> Any:
        return self.net.runtime.sim.future()


__all__ = ["SimClientNetwork", "SimClientLink", "DROP"]
