"""TCP client transport: request listeners and the asyncio client.

Real deployment shape (paper Sec. 6): each replica exposes a *client
endpoint* — a TCP listener separate from the replica-to-replica mesh of
:mod:`repro.net.tcp` — and clients dial some or all of them.  Frames are
the same length-prefixed canonical encoding the mesh uses:

* ``("chl", client_id)`` — session hello, first frame on every
  connection; registers the connection as ``client_id``'s reply session
  on that replica (latest connection wins);
* ``("crq", client_id, seq, command)`` — a request;
* ``("crp", seq, status, result, epoch, roster_digest)`` — a pushed
  reply, trailing the replica's membership view (see
  :func:`repro.client.protocol.check_reply_frame`).

Clients are deliberately **unauthenticated** (the paper's clients hold no
group keys): a replica will execute any well-formed request, and a client
trusts no single replica — integrity comes entirely from the ``t + 1``
reply vote, where a replica's vote identity is the *endpoint the client
dialled*, never anything in the payload.

:class:`TcpClient` supervises one connection per replica with seeded
capped-exponential reconnect backoff, mirroring the mesh's link
supervision: a crashed contact replica costs a timeout and a failover,
never a wedged client.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.client.client import SintraClient
from repro.client.protocol import (
    MSG_HELLO,
    MSG_REPLY,
    MSG_REQUEST,
    check_reply_frame,
    check_request_frame,
)
from repro.client.server import RequestServer
from repro.common import rng as rng_mod
from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError
from repro.net.tcp import AsyncFuture, BackoffPolicy, read_frame, write_frame
from repro.obs import recorder as _recorder


async def _read_fields(reader: asyncio.StreamReader) -> Optional[Any]:
    """One decoded frame, or ``None`` on EOF/garbage/oversize."""
    payload = await read_frame(reader)
    if payload is None:
        return None
    try:
        return decode(payload)
    except EncodingError:
        return None


class TcpRequestListener:
    """One replica's client-facing TCP endpoint."""

    def __init__(self, server: RequestServer, host: str, port: int,
                 obs: Optional[_recorder.Recorder] = None):
        self.server = server
        self.host = host
        self.port = port
        self.obs = obs if obs is not None else _recorder.NULL
        self._listener: Optional[asyncio.AbstractServer] = None
        self._conns: Set[asyncio.StreamWriter] = set()

    async def start(self) -> None:
        self._listener = await asyncio.start_server(
            self._on_client, self.host, self.port)

    async def stop(self) -> None:
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        for writer in list(self._conns):
            writer.close()
        self._conns.clear()

    async def _on_client(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        self._conns.add(writer)
        client_id: Optional[str] = None
        send_reply = None
        try:
            hello = await _read_fields(reader)
            if not (isinstance(hello, tuple) and len(hello) == 2
                    and hello[0] == MSG_HELLO and isinstance(hello[1], str)):
                return
            client_id = hello[1]

            def send_reply(seq: int, status: int, result: bytes,
                           epoch: int, digest: bytes) -> None:
                try:
                    write_frame(writer, encode(
                        (MSG_REPLY, seq, status, result, epoch, digest)))
                except (ConnectionError, OSError, RuntimeError):
                    pass  # dying connection; the client will reconnect

            self.server.register_client(client_id, send_reply)
            if self.obs.enabled:
                self.obs.count("reqserver.sessions")

            while True:
                fields = await _read_fields(reader)
                if fields is None:
                    return
                request = check_request_frame(fields)
                if request is None:
                    if self.obs.enabled:
                        self.obs.count("reqserver.bad_frames")
                    continue
                self.server.handle_request(*request)
        finally:
            if client_id is not None and send_reply is not None:
                self.server.unregister_client(client_id, send_reply)
            self._conns.discard(writer)
            writer.close()


class TcpClient:
    """An external client dialling every replica's client endpoint.

    Doubles as the :class:`~repro.client.client.ClientLink` for its
    embedded :class:`SintraClient` core; ``await submit(command)`` is the
    whole public API.
    """

    def __init__(
        self,
        endpoints: Sequence[Tuple[str, int]],
        t: int,
        client_id: str,
        seed: Optional[int] = None,
        obs: Optional[_recorder.Recorder] = None,
        **client_kwargs: Any,
    ):
        if len(endpoints) <= 3 * t:
            raise ValueError(
                f"need n > 3t replica endpoints, got {len(endpoints)} "
                f"for t={t}")
        self.endpoints = list(endpoints)
        self.n = len(endpoints)
        self.t = t
        self.client_id = client_id
        self.obs = obs if obs is not None else _recorder.NULL
        self._seed = seed
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._tasks: List[asyncio.Task] = []
        self._stopping = False
        self.core = SintraClient(
            self, client_id, seed=seed, obs=self.obs, **client_kwargs)

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        for replica in range(self.n):
            self._tasks.append(
                asyncio.ensure_future(self._supervise(replica)))

    async def stop(self) -> None:
        self._stopping = True
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()

    def connected(self) -> int:
        return len(self._writers)

    async def submit(self, command: bytes) -> bytes:
        """Submit one command; returns the ``t + 1``-voted result bytes."""
        return await self.core.submit(command)

    # -- per-replica supervision ---------------------------------------------------

    async def _supervise(self, replica: int) -> None:
        host, port = self.endpoints[replica]
        backoff = BackoffPolicy(
            base=0.05, cap=2.0,
            rng=(rng_mod.derive(self._seed, "client-net", self.client_id,
                                replica)
                 if self._seed is not None else rng_mod.fresh()),
        )
        attempt = 0
        while not self._stopping:
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except (ConnectionError, OSError):
                await asyncio.sleep(backoff.delay(attempt))
                attempt += 1
                continue
            attempt = 0
            try:
                write_frame(writer, encode((MSG_HELLO, self.client_id)))
                self._writers[replica] = writer
                if self.obs.enabled:
                    self.obs.count("client.connects")
                await self._read_replies(replica, reader)
            finally:
                if self._writers.get(replica) is writer:
                    del self._writers[replica]
                writer.close()
            if not self._stopping:
                await asyncio.sleep(backoff.delay(attempt))
                attempt += 1

    async def _read_replies(self, replica: int,
                            reader: asyncio.StreamReader) -> None:
        while True:
            fields = await _read_fields(reader)
            if fields is None:
                return
            reply = check_reply_frame(fields)
            if reply is None:
                if self.obs.enabled:
                    self.obs.count("client.bad_frames")
                continue
            self.core.on_reply(replica, *reply)

    # -- ClientLink ------------------------------------------------------------------

    def send(self, replica: int, seq: int, command: bytes) -> None:
        writer = self._writers.get(replica)
        if writer is None:
            return  # down; retry/failover will cover it
        try:
            write_frame(writer, encode(
                (MSG_REQUEST, self.client_id, seq, command)))
        except (ConnectionError, OSError, RuntimeError):
            pass

    def set_timer(self, delay: float, fn: Any) -> Any:
        return asyncio.get_running_loop().call_later(delay, fn)

    def new_future(self) -> AsyncFuture:
        return AsyncFuture()


__all__ = ["TcpRequestListener", "TcpClient"]
