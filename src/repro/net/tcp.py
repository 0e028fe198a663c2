"""Resilient real-network runtime: the SINTRA stack over asyncio TCP.

The paper's implementation runs its reliable point-to-point links over TCP
with HMAC authentication (Sec. 3) and explicitly flags plain TCP as a
liability — forged TCP acknowledgments can make a sender discard data the
receiver never got — planning to replace it with SINTRA's own
sliding-window links with *authenticated* acknowledgments.  This module
realizes that plan for the real network: one
:class:`~repro.net.sliding_window.SlidingWindowLink` per peer runs
**over** TCP framing, and a connection supervisor per directed peer link
keeps the carrier alive.

Layering, top to bottom:

* protocol stack — unchanged sans-I/O classes, driven via :class:`TcpContext`;
* sliding-window session — authenticated data + cumulative authenticated
  ACKs, bounded in-flight window, retransmission after a measured
  timeout.  The payload is the packed message body, MACed once; its
  sender is the peer the connection's authenticated hello bound
  (:mod:`repro.net.links` states the rule), and self-sends take the
  local loop.  Frames unacknowledged when a TCP connection dies are
  retransmitted after reconnect; duplicates from replays are suppressed
  by the receiver's per-session state (exactly-once FIFO within a
  session, at-least-once across a peer *restart*);
* connection supervisor — one outgoing TCP connection per directed link,
  re-dialled forever with capped exponential backoff and deterministic
  jitter (seeded via :mod:`repro.common.rng`).  A dead link is noticed
  when a write into it fails; the supervisor re-dials and resumes the
  window, whose measured timeout re-sends what was never acknowledged.

Every frame on the wire is a canonical tuple behind a length prefix
(:func:`write_frame` / :func:`read_frame`, which the client endpoints share):

* ``("hlo", sender, session, tag)`` — first frame on every connection;
  binds the connection to ``sender`` and announces the data session;
* ``("dat", session, seq, body, tag)`` / ``("ack", session, cum, tag)``
  — the sliding-window datagrams (see :mod:`repro.net.sliding_window`).

Any other kind drops the connection.

Degradation policy: all per-peer queues are bounded (the window's
backlog and :data:`OUTBOX_LIMIT`, drop-oldest with counters), so one dead
peer cannot exhaust memory while the other ``n - t`` make progress;
dropped data frames are recovered by retransmission if the peer returns.
Per-peer counters (reconnects, retransmissions, backlog depth, auth
failures, …) are exposed via :meth:`TcpNode.link_stats` /
:meth:`TcpNode.stats`.

Sessions are unique per node *instance* (derived from ``seed`` when one
is given — restart tests must use a distinct seed — and from OS entropy
otherwise), so a restarted peer is detected by its fresh session and both
directions renumber without losing queued frames.

Usage (see ``examples/real_network.py``)::

    nodes = [TcpNode(group, i, endpoints) for i in range(n)]
    await asyncio.gather(*(node.start() for node in nodes))
    channels = [AtomicChannel(node.ctx, "ch") for node in nodes]
    ...
    await asyncio.gather(*(node.stop() for node in nodes))
"""

from __future__ import annotations

import asyncio
import collections
import functools
import logging
import socket
import struct
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.common import rng as rng_mod
from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError, TransportError
from repro.core.protocol import Context, Router
from repro.crypto.dealer import GroupConfig
from repro.net.message import pack_body, unpack_body
from repro.net.sliding_window import SlidingWindowLink
from repro.obs.recorder import NULL as NULL_RECORDER
from repro.obs.recorder import Recorder

logger = logging.getLogger("repro.net.tcp")

_LEN = struct.Struct(">I")
MAX_FRAME = 16 * 1024 * 1024

KIND_HELLO = "hlo"

SESSION_BYTES = 16
#: wire frames queued per peer for the writer (drop-oldest beyond)
OUTBOX_LIMIT = 8192


def write_frame(writer: asyncio.StreamWriter, payload: bytes) -> None:
    """Queue ``payload`` on the stream behind its length prefix."""
    writer.write(_LEN.pack(len(payload)) + payload)


async def read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The stream's next length-prefixed payload; ``None`` once it is of
    no further use (EOF, a reset, a length above :data:`MAX_FRAME`)."""
    try:
        (length,) = _LEN.unpack(await reader.readexactly(_LEN.size))
        if length > MAX_FRAME:
            return None
        return await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        return None


class AsyncFuture:
    """asyncio-backed future with the SimFuture interface (awaitable)."""

    def __init__(self) -> None:
        self._fut: asyncio.Future = asyncio.get_running_loop().create_future()

    @property
    def done(self) -> bool:
        return self._fut.done()

    @property
    def value(self) -> Any:
        return self._fut.result() if self._fut.done() else None

    def resolve(self, value: Any = None) -> None:
        if not self._fut.done():
            self._fut.set_result(value)

    def reject(self, error: BaseException) -> None:
        """Fail the future: awaiting it raises ``error``."""
        if not self._fut.done():
            self._fut.set_exception(error)

    def add_done_callback(self, cb: Callable) -> None:
        self._fut.add_done_callback(lambda f: cb(self))

    def __await__(self):
        return self._fut.__await__()


class AsyncQueue:
    """asyncio.Queue with the SimQueue interface (``get`` is awaitable)."""

    def __init__(self) -> None:
        self._q: asyncio.Queue = asyncio.Queue()

    def put(self, item: Any) -> None:
        self._q.put_nowait(item)

    def get(self):
        return self._q.get()

    def can_get(self) -> bool:
        return not self._q.empty()

    def __len__(self) -> int:
        return self._q.qsize()


class BackoffPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``delay(attempt)`` for attempts 0, 1, 2, … grows as ``base *
    multiplier**attempt`` up to ``cap``, then each delay is spread by a
    symmetric jitter fraction drawn from ``rng`` — seeded via
    :func:`repro.common.rng.derive`, so a test's reconnect schedule is
    reproducible from one integer while real deployments decorrelate
    their reconnect storms.
    """

    def __init__(
        self,
        base: float = 0.05,
        cap: float = 2.0,
        multiplier: float = 2.0,
        jitter: float = 0.25,
        rng=None,
    ):
        if base <= 0 or cap < base or multiplier < 1 or not 0 <= jitter < 1:
            raise TransportError("invalid backoff parameters")
        self.base = base
        self.cap = cap
        self.multiplier = multiplier
        self.jitter = jitter
        self._rng = rng if rng is not None else rng_mod.fresh()

    def delay(self, attempt: int) -> float:
        raw = min(self.cap, self.base * self.multiplier ** max(0, attempt))
        if not self.jitter:
            return raw
        return raw * (1.0 + self.jitter * (2.0 * self._rng.random() - 1.0))


@dataclass
class LinkStats:
    """Per-peer counters exposed by :meth:`TcpNode.link_stats`."""

    reconnects: int = 0  # successful re-establishments (first connect excluded)
    retransmissions: int = 0  # sliding-window data frames re-sent
    backlog: int = 0  # frames queued or unacknowledged right now
    overflow_dropped: int = 0  # frames degraded-dropped by bounded queues
    auth_failures: int = 0  # forged/garbled window datagrams on this link
    duplicates: int = 0  # replayed data frames suppressed by the receiver


class _Outbox:
    """Bounded FIFO of wire frames for one peer (drop-oldest on overflow).

    Dropping is safe at this layer: ACKs are regenerated, and data
    datagrams are re-sent by the window's retransmission.
    """

    def __init__(self) -> None:
        self._items: Deque[bytes] = collections.deque()
        self._ready = asyncio.Event()
        self.dropped = 0

    def put(self, item: bytes) -> None:
        if len(self._items) >= OUTBOX_LIMIT:
            self._items.popleft()
            self.dropped += 1
        self._items.append(item)
        self._ready.set()

    async def get(self) -> bytes:
        while not self._items:
            self._ready.clear()
            await self._ready.wait()
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)


class _PeerLink:
    """Everything one :class:`TcpNode` keeps per directed peer link."""

    def __init__(self, node: "TcpNode", peer: int):
        loop = asyncio.get_running_loop()
        self.peer = peer
        self.auth = node.ctx.crypto.link_auth(peer)
        self.epoch = 0
        self.outbox = _Outbox()
        # its receiver opens on the session the peer's hello announces
        self.window = SlidingWindowLink(
            self.auth,
            node._new_session(peer, 0),
            transmit=self.outbox.put,
            deliver=functools.partial(node._deliver, peer),
            clock=loop.time,
            call_at=loop.call_at,
        )
        self.window.connected = False
        self.task: Optional[asyncio.Task] = None
        self.connects = 0


class TcpContext(Context):
    """Protocol context bound to a :class:`TcpNode`."""

    def __init__(self, node: "TcpNode"):
        self.node_id = node.index
        self.n = node.group.n
        self.t = node.group.t
        self.crypto = node.group.party(node.index)
        self.obs = node.obs
        self.router = Router(recorder=node.obs)
        self._node = node

    def send(self, dst: int, pid: str, mtype: str, payload: Any) -> None:
        self._node.send_frame(dst, pack_body(pid, mtype, payload))

    def broadcast(self, pid: str, mtype: str, payload: Any) -> None:
        body = pack_body(pid, mtype, payload)  # one body for every link
        for dst in range(self.n):
            self._node.send_frame(dst, body)

    def effect(self, fn: Callable, *args: Any) -> None:
        asyncio.get_running_loop().call_soon(fn, *args)

    def defer(self, fn: Callable[[], None]) -> None:
        asyncio.get_running_loop().call_soon(fn)

    def set_timer(self, delay: float, fn: Callable[[], None]):
        from repro.core.protocol import Timer

        timer = Timer()
        node = self._node

        def fire() -> None:
            node._timers.discard(handle)
            if timer.active:
                fn()

        handle = asyncio.get_running_loop().call_later(delay, fire)
        node._timers.add(handle)
        return timer

    def new_queue(self) -> AsyncQueue:
        return AsyncQueue()

    def new_future(self) -> AsyncFuture:
        return AsyncFuture()

    def now(self) -> float:
        return asyncio.get_running_loop().time()


class TcpNode:
    """One SINTRA server on a real TCP network, with supervised links.

    ``endpoints`` is the full group's advertised address list (what this
    node *dials*); ``listen_endpoint`` overrides where this node itself
    binds, for deployments (or chaos proxies) where the advertised address
    differs from the local one.  ``connect_retry_s`` is the backoff base
    delay, kept under its historical name.
    """

    def __init__(
        self,
        group: GroupConfig,
        index: int,
        endpoints: List[Tuple[str, int]],
        connect_retry_s: float = 0.05,
        *,
        seed: Optional[object] = None,
        listen_endpoint: Optional[Tuple[str, int]] = None,
        backoff_cap: float = 2.0,
        recorder: Optional[Recorder] = None,
    ):
        if len(endpoints) != group.n:
            raise TransportError("need one endpoint per party")
        self.group = group
        self.index = index
        self.endpoints = endpoints
        self.listen_endpoint = listen_endpoint or endpoints[index]
        self.connect_retry_s = connect_retry_s
        self.seed = seed
        self.backoff_cap = backoff_cap
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self.ctx = TcpContext(self)
        self._server: Optional[asyncio.AbstractServer] = None
        self._links: Dict[int, _PeerLink] = {}
        self._tasks: List[asyncio.Task] = []
        self._timers: Set[asyncio.TimerHandle] = set()
        self._incoming: Set[asyncio.StreamWriter] = set()
        self.frames_received = 0
        self.auth_failures = 0

    # -- seeded material ---------------------------------------------------------

    def _new_session(self, peer: int, epoch: int) -> bytes:
        if self.seed is not None:
            r = rng_mod.derive(self.seed, "tcp-session", self.index, peer, epoch)
        else:
            r = rng_mod.fresh()
        return r.randbytes(SESSION_BYTES)

    def _backoff(self, peer: int) -> BackoffPolicy:
        if self.seed is not None:
            r = rng_mod.derive(self.seed, "tcp-backoff", self.index, peer)
        else:
            r = rng_mod.fresh()
        return BackoffPolicy(base=self.connect_retry_s, cap=self.backoff_cap, rng=r)

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Listen on the local endpoint and supervise one link per peer."""
        loop = asyncio.get_running_loop()
        if self.obs.enabled:
            # Wall-clock runtime: durations come from the event loop clock.
            self.obs.bind_clock(loop.time)
        host, port = self.listen_endpoint
        self._server = await asyncio.start_server(self._on_peer, host, port)
        for peer in (p for p in range(self.group.n) if p != self.index):
            link = _PeerLink(self, peer)
            self._links[peer] = link
            link.task = asyncio.ensure_future(self._supervise(peer))
            self._tasks.append(link.task)

    async def stop(self) -> None:
        for handle in list(self._timers):
            handle.cancel()
        self._timers.clear()
        for link in self._links.values():
            link.window.close()
        for task in self._tasks:
            task.cancel()
        results = await asyncio.gather(*self._tasks, return_exceptions=True)
        for task, result in zip(self._tasks, results):
            # CancelledError is the expected outcome; anything else is a
            # real supervisor failure worth surfacing.
            if isinstance(result, Exception):
                logger.warning("task %r failed during stop: %r", task, result)
        for writer in list(self._incoming):
            writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- sending ----------------------------------------------------------------

    def send_frame(self, dst: int, body: bytes) -> None:
        if self.obs.enabled:
            self.obs.count("tcp.frames_sent")
            self.obs.count("tcp.bytes_sent", len(body))
        if dst == self.index:
            # Local loop: deliver asynchronously like any other message.
            asyncio.get_running_loop().call_soon(self._deliver, dst, body)
            return
        self._links[dst].window.send(body)

    def _hello_frame(self, link: _PeerLink, session: bytes) -> bytes:
        tag = link.auth.tag(encode((KIND_HELLO, self.index, session)))
        return encode((KIND_HELLO, self.index, session, tag))

    async def _supervise(self, peer: int) -> None:
        """Connection supervisor: dial, hand over the outbox, re-dial forever."""
        host, port = self.endpoints[peer]
        link = self._links[peer]
        backoff = self._backoff(peer)
        attempt = 0
        pending: Optional[bytes] = None  # frame being written when the link died
        while True:
            try:
                _, writer = await asyncio.open_connection(host, port)
            except OSError:
                await asyncio.sleep(backoff.delay(attempt))
                attempt += 1
                continue
            attempt = 0
            link.connects += 1
            link.window.connected = True
            try:
                # Announce the session first, then retransmit whatever was
                # unacknowledged at disconnect (session resumption).
                write_frame(writer, self._hello_frame(link, link.window.sender.session))
                if link.connects > 1 or link.outbox.dropped:
                    link.window.resume()
                await writer.drain()
                while True:
                    frame = pending if pending is not None else await link.outbox.get()
                    pending = frame
                    write_frame(writer, frame)
                    await writer.drain()
                    pending = None
            except (ConnectionError, OSError):
                pass
            finally:
                link.window.connected = False
                writer.close()
            await asyncio.sleep(backoff.delay(attempt))
            attempt += 1

    # -- receiving -----------------------------------------------------------------

    async def _on_peer(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._incoming.add(writer)
        peer: Optional[int] = None  # bound by the first valid hello
        try:
            while (frame := await read_frame(reader)) is not None:
                peer = self._handle_frame(peer, frame)
        except TransportError:
            # Malformed or unauthenticated framing: drop the connection so
            # the peer's supervisor re-dials with fresh, aligned framing
            # (a corrupted length prefix desynchronizes everything after).
            pass
        except asyncio.CancelledError:
            # Loop teardown: finish cleanly so asyncio's streams callback
            # does not log a spurious traceback for the handler task.
            pass
        finally:
            self._incoming.discard(writer)
            writer.close()

    def _handle_frame(self, bound: Optional[int], frame: bytes) -> int:
        """Dispatch one wire frame; returns the connection's peer binding."""
        try:
            fields = decode(frame)
        except EncodingError:
            self.auth_failures += 1
            raise TransportError("undecodable frame")
        if not isinstance(fields, tuple) or not fields:
            self.auth_failures += 1
            raise TransportError("malformed frame")
        kind = fields[0]

        if kind == KIND_HELLO and len(fields) == 4:
            _, sender, session, tag = fields
            if (
                not isinstance(sender, int)
                or not isinstance(session, bytes)
                or not isinstance(tag, bytes)
                or not 0 <= sender < self.group.n
                or sender == self.index
            ):
                self.auth_failures += 1
                raise TransportError("malformed hello")
            link = self._links[sender]
            if not link.auth.verify(encode((KIND_HELLO, sender, session)), tag):
                self.auth_failures += 1
                raise TransportError("unauthenticated hello")
            self._on_hello(sender, session)
            return sender

        if bound is None:
            self.auth_failures += 1
            raise TransportError("frame before hello")
        if self._links[bound].window.on_datagram(fields):
            return bound

        self.auth_failures += 1
        raise TransportError(f"unknown frame kind {kind!r}")

    def _on_hello(self, sender: int, session: bytes) -> None:
        link = self._links[sender]
        receiver = link.window.receiver
        if receiver is not None and receiver.session == session:
            return  # resumed connection: receive state (dedup) is intact
        link.window.listen(session)
        if receiver is not None:
            # The peer instance restarted (its receive state is gone):
            # renumber our unacknowledged traffic under a fresh session,
            # announced before the renumbered data (the outbox is FIFO).
            link.epoch += 1
            fresh = self._new_session(sender, link.epoch)
            link.outbox.put(self._hello_frame(link, fresh))
            link.window.rebind(fresh)

    def _deliver(self, sender: int, body: bytes) -> None:
        """Route one body from ``sender``: the link's peer, or this node."""
        try:
            msg = unpack_body(sender, body)
        except TransportError:
            self.auth_failures += 1
            if self.obs.enabled:
                self.obs.count("tcp.auth_failures")
            return
        self.frames_received += 1
        if self.obs.enabled:
            self.obs.count("tcp.frames_received")
        try:
            self.ctx.router.dispatch(msg.sender, msg.pid, msg.mtype, msg.payload)
        except Exception as exc:
            # A handler exception is this server's bug, not the peer's
            # input (the router refused malformed input already): log it
            # loudly and keep the link, so one bug cannot take an honest
            # server off the group.
            logger.exception(
                "handler bug on %s (%r from %d)", msg.pid, msg.mtype, msg.sender
            )
            self.ctx.router.errors.append((msg.pid, msg.sender, exc))
            if self.obs.enabled:
                self.obs.count("tcp.handler_errors")

    # -- observability -----------------------------------------------------------

    def link_stats(self, peer: int) -> LinkStats:
        """Current counters for the directed link to/from ``peer``."""
        link = self._links[peer]
        sender, receiver = link.window.sender, link.window.receiver
        return LinkStats(
            reconnects=max(0, link.connects - 1),
            retransmissions=sender.retransmissions,
            backlog=sender.backlog_depth + len(link.outbox),
            overflow_dropped=sender.overflow_dropped + link.outbox.dropped,
            auth_failures=sender.forged_acks
            + (receiver.forged_data if receiver is not None else 0),
            duplicates=receiver.duplicates if receiver is not None else 0,
        )

    def stats(self) -> Dict[str, Any]:
        """Aggregate counters plus the per-peer breakdown."""
        per_peer = {peer: self.link_stats(peer) for peer in sorted(self._links)}
        aggregate = {
            "frames_received": self.frames_received,
            "auth_failures": self.auth_failures,
            "reconnects": sum(s.reconnects for s in per_peer.values()),
            "retransmissions": sum(s.retransmissions for s in per_peer.values()),
            "backlog": sum(s.backlog for s in per_peer.values()),
            "overflow_dropped": sum(s.overflow_dropped for s in per_peer.values()),
            "peers": per_peer,
        }
        self.publish_obs(per_peer)
        return aggregate

    def publish_obs(self, per_peer: Optional[Dict[int, LinkStats]] = None) -> None:
        """Mirror the link counters into the recorder.

        Gauges are named ``tcp.link.<field>`` (aggregated across peers) so
        the TCP runtime's health shows up in the same registry (and BENCH
        export) as the protocol metrics.
        """
        if not self.obs.enabled:
            return
        if per_peer is None:
            per_peer = {peer: self.link_stats(peer) for peer in sorted(self._links)}
        stats = list(per_peer.values())
        self.obs.set_gauge("tcp.link.reconnects", sum(s.reconnects for s in stats))
        self.obs.set_gauge(
            "tcp.link.retransmissions", sum(s.retransmissions for s in stats)
        )
        self.obs.set_gauge("tcp.link.backlog", sum(s.backlog for s in stats))
        self.obs.set_gauge(
            "tcp.link.overflow_dropped", sum(s.overflow_dropped for s in stats)
        )
        self.obs.set_gauge(
            "tcp.link.auth_failures", sum(s.auth_failures for s in stats)
        )
        self.obs.set_gauge("tcp.link.duplicates", sum(s.duplicates for s in stats))


def local_endpoints(
    n: int, base_port: Optional[int] = None
) -> List[Tuple[str, int]]:
    """Localhost endpoints for an in-process test deployment.

    Without ``base_port``, ephemeral ports are allocated by binding port 0
    and reading back the kernel's assignment — parallel test runs cannot
    collide on a fixed base.  All ``n`` sockets are held open until every
    port is known, so the same port is never handed out twice.
    """
    if base_port is not None:
        return [("127.0.0.1", base_port + i) for i in range(n)]
    sockets: List[socket.socket] = []
    endpoints: List[Tuple[str, int]] = []
    try:
        for _ in range(n):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
            endpoints.append(("127.0.0.1", sock.getsockname()[1]))
    finally:
        for sock in sockets:
            sock.close()
    return endpoints
