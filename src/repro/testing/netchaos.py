"""Socket-level chaos testing for the asyncio TCP runtime.

PR 1's fuzz harness explores protocol schedules under a *simulated*
network; this module extends the same seeded fault-plan philosophy to the
real asyncio stack.  A :class:`ChaosProxy` is an in-process TCP proxy
that forwards bytes between real :class:`~repro.net.tcp.TcpNode` sockets
while injecting, per forwarded chunk and from a seeded stream:

* **connection resets** — both directions aborted mid-flight;
* **stalls** — a direction pauses, stretching delivery;
* **truncated frames** — a prefix of a chunk is forwarded, then a reset;
* **byte corruption** — one bit flipped (caught by the window's HMACs).

All *decisions* are drawn from ``random.Random`` streams derived from one
seed via :mod:`repro.common.rng`; chunk boundaries still depend on OS
timing, so a chaos run is seeded-reproducible in distribution rather than
byte-exact — the repro line pins the seed and probabilities, as in the
fuzz tier.

:class:`ChaosFabric` wires a whole group: node *i* listens on a private
ephemeral port, every peer dials proxy *i* instead, and the proxy
forwards (with chaos) to the real port.  ``kill_connections()`` plus
``blackhole`` emulate a peer's network dying and healing mid-run.
"""

from __future__ import annotations

import asyncio
import random
import shutil
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.common import rng as rng_mod
from repro.net.faults import ProcessFault, SocketChaosPlan
from repro.net.tcp import TcpNode, local_endpoints

CHUNK = 4096


class ChaosProxy:
    """Seeded chaos TCP proxy in front of one listening endpoint."""

    def __init__(
        self,
        target: Tuple[str, int],
        plan: Optional[SocketChaosPlan] = None,
        rng: Optional[random.Random] = None,
        host: str = "127.0.0.1",
    ):
        self.target = target
        self.plan = plan or SocketChaosPlan()
        self.host = host
        self.port: Optional[int] = None
        self._rng = rng if rng is not None else random.Random(0)
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self.blackholed = False
        self.connections = 0
        self.resets_injected = 0
        self.stalls_injected = 0
        self.corruptions_injected = 0
        self.truncations_injected = 0

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(self._accept, self.host, 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return (self.host, self.port)

    async def stop(self) -> None:
        self.kill_connections()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    def kill_connections(self) -> None:
        """Abort every live proxied connection (both sides, immediately)."""
        for writer in list(self._writers):
            writer.transport.abort()
        self._writers.clear()

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self.blackholed:
            writer.transport.abort()
            return
        up_writer: Optional[asyncio.StreamWriter] = None
        try:
            try:
                up_reader, up_writer = await asyncio.open_connection(*self.target)
            except OSError:
                writer.close()
                return
            self.connections += 1
            # One decision stream per connection, split off the proxy
            # stream: reconnects get fresh draws but the whole run replays
            # from one seed.
            conn_rng = random.Random(self._rng.getrandbits(64))
            self._writers.update((writer, up_writer))
            await asyncio.gather(
                self._pump(reader, up_writer, writer, conn_rng),
                self._pump(up_reader, writer, up_writer, conn_rng),
                return_exceptions=True,
            )
        except asyncio.CancelledError:
            # Loop teardown: finish cleanly so asyncio's streams callback
            # does not log a spurious traceback for the handler task.
            pass
        finally:
            for w in (writer, up_writer):
                if w is None:
                    continue
                self._writers.discard(w)
                w.close()

    async def _pump(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        back_writer: asyncio.StreamWriter,
        rng: random.Random,
    ) -> None:
        plan = self.plan
        try:
            while True:
                chunk = await reader.read(CHUNK)
                if not chunk:
                    writer.close()
                    return
                if rng.random() < plan.reset_prob:
                    self.resets_injected += 1
                    writer.transport.abort()
                    back_writer.transport.abort()
                    return
                if rng.random() < plan.truncate_prob and len(chunk) > 1:
                    self.truncations_injected += 1
                    writer.write(chunk[: rng.randrange(1, len(chunk))])
                    await asyncio.wait_for(writer.drain(), timeout=1.0)
                    writer.transport.abort()
                    back_writer.transport.abort()
                    return
                if rng.random() < plan.corrupt_prob:
                    self.corruptions_injected += 1
                    pos = rng.randrange(len(chunk))
                    flipped = chunk[pos] ^ (1 << rng.randrange(8))
                    chunk = chunk[:pos] + bytes((flipped,)) + chunk[pos + 1 :]
                if rng.random() < plan.stall_prob:
                    self.stalls_injected += 1
                    await asyncio.sleep(plan.stall_s)
                writer.write(chunk)
                await writer.drain()
        except (ConnectionError, OSError, asyncio.TimeoutError):
            writer.close()

    @property
    def injected(self) -> Dict[str, int]:
        return {
            "connections": self.connections,
            "resets": self.resets_injected,
            "stalls": self.stalls_injected,
            "corruptions": self.corruptions_injected,
            "truncations": self.truncations_injected,
        }


class ChaosFabric:
    """A group of :class:`ChaosProxy` instances fronting ``n`` TcpNodes.

    Usage::

        fabric = ChaosFabric(4, plan, seed=0xS1NTRA)
        await fabric.start()
        nodes = fabric.make_nodes(group)
        await asyncio.gather(*(node.start() for node in nodes))
        ...
        await asyncio.gather(*(node.stop() for node in nodes))
        await fabric.stop()
    """

    def __init__(
        self,
        n: int,
        plan: Optional[SocketChaosPlan] = None,
        seed: object = 0,
        host: str = "127.0.0.1",
    ):
        self.n = n
        self.seed = seed
        #: where the nodes really listen; filled by ``start``
        self.real_endpoints: List[Tuple[str, int]] = []
        self.proxies = [
            ChaosProxy(
                ("", 0),
                plan,
                rng=rng_mod.derive(seed, "netchaos", i),
                host=host,
            )
            for i in range(n)
        ]
        #: what the group advertises (the proxies); filled by ``start``
        self.endpoints: Optional[List[Tuple[str, int]]] = None

    async def start(self) -> List[Tuple[str, int]]:
        self.endpoints = [await proxy.start() for proxy in self.proxies]
        # Picked only once every proxy is listening: a port released by
        # ``local_endpoints`` could otherwise come back as a proxy's port.
        self.real_endpoints = local_endpoints(self.n)
        for proxy, target in zip(self.proxies, self.real_endpoints):
            proxy.target = target
        return self.endpoints

    async def stop(self) -> None:
        for proxy in self.proxies:
            await proxy.stop()

    def make_nodes(self, group, **node_kwargs: Any) -> List[TcpNode]:
        """TcpNodes that listen privately and dial each other via proxies."""
        if self.endpoints is None:
            raise RuntimeError("start() the fabric before make_nodes()")
        return [
            TcpNode(
                group,
                i,
                self.endpoints,
                seed=rng_mod.derive_int(self.seed, "netchaos-node", i),
                listen_endpoint=self.real_endpoints[i],
                **node_kwargs,
            )
            for i in range(group.n)
        ]

    def injected(self) -> Dict[str, int]:
        """Summed injection counters across all proxies."""
        totals: Dict[str, int] = {}
        for proxy in self.proxies:
            for key, value in proxy.injected.items():
                totals[key] = totals.get(key, 0) + value
        return totals


class ReplicaProcess:
    """One replica *process* under the chaos fabric: a ``TcpNode`` plus a
    :class:`~repro.recovery.service.RecoverableService` whose in-memory
    state can be destroyed outright (``kill``) and rebuilt from disk and
    peers (``restart`` + ``recover``).

    ``kill()`` emulates SIGKILL inside one interpreter: the proxy is
    blackholed, live connections are aborted, the node's tasks are torn
    down, and every object reference is dropped *without* flushing or
    closing the durable files — the delivery log is opened unbuffered, so
    what survives is exactly what the configured fsync policy guarantees.
    Each incarnation derives a fresh transport seed (epoch-salted), which
    the session layer requires of a restarted peer.

    With ``client_endpoint=(host, port)`` each incarnation also exposes a
    client-facing :class:`~repro.client.tcpnet.TcpRequestListener` (the
    service's state machine must then be a
    :class:`~repro.client.dedup.DedupStateMachine`).  The endpoint is
    *stable across incarnations* — external clients reconnect to the same
    address after a kill, exactly like a restarted real process — while
    ``kill()`` tears the listener down abruptly along with everything
    else.
    """

    def __init__(
        self,
        fabric: ChaosFabric,
        group,
        index: int,
        make_state: Callable[[], Any],
        directory: str,
        service_pid: str = "svc",
        recorder_factory: Optional[Callable[[], Any]] = None,
        service_cls: Optional[type] = None,
        service_kwargs: Optional[Dict[str, Any]] = None,
        client_endpoint: Optional[Tuple[str, int]] = None,
        request_server_kwargs: Optional[Dict[str, Any]] = None,
        **node_kwargs: Any,
    ):
        self.fabric = fabric
        self.group = group
        self.index = index
        self.make_state = make_state
        self.directory = directory
        self.service_pid = service_pid
        self.recorder_factory = recorder_factory
        #: what each incarnation constructs, called like RecoverableService
        #: (the default).  A ``Membership`` serves one service instance, so
        #: membership chaos tests pass a function that builds a fresh one
        #: from the ``keychain`` riding in ``service_kwargs``.
        self.service_cls = service_cls
        self.service_kwargs = dict(service_kwargs or {})
        self.client_endpoint = client_endpoint
        self.request_server_kwargs = dict(request_server_kwargs or {})
        self.node_kwargs = dict(node_kwargs)
        self.epoch = 0
        self.kills = 0
        self.node: Optional[TcpNode] = None
        self.service = None
        self.recorder = None
        self.request_server = None
        self.client_listener = None

    @property
    def proxy(self) -> ChaosProxy:
        return self.fabric.proxies[self.index]

    # -- lifecycle ----------------------------------------------------------------

    async def start(self):
        """Boot fresh (or from local durable state) and go live."""
        await self._boot()
        self.service.start()
        return self.service

    async def _boot(self) -> None:
        from repro.core.party import Party
        from repro.recovery.service import RecoverableService

        if self.fabric.endpoints is None:
            raise RuntimeError("start() the fabric before booting replicas")
        self.recorder = (
            self.recorder_factory() if self.recorder_factory is not None else None
        )
        node = TcpNode(
            self.group,
            self.index,
            self.fabric.endpoints,
            seed=rng_mod.derive_int(
                self.fabric.seed, "netchaos-proc", self.index, self.epoch
            ),
            listen_endpoint=self.fabric.real_endpoints[self.index],
            recorder=self.recorder,
            **self.node_kwargs,
        )
        await node.start()
        self.node = node
        service_cls = self.service_cls or RecoverableService
        self.service = service_cls(
            Party(node.ctx),
            self.service_pid,
            self.make_state(),
            self.directory,
            **self.service_kwargs,
        )
        if self.client_endpoint is not None:
            from repro.client.server import RequestServer
            from repro.client.tcpnet import TcpRequestListener

            self.request_server = RequestServer(
                self.service,
                obs=self.recorder,
                **self.request_server_kwargs,
            )
            self.client_listener = TcpRequestListener(
                self.request_server,
                self.client_endpoint[0],
                self.client_endpoint[1],
                obs=self.recorder,
            )
            await self.client_listener.start()

    async def kill(self) -> None:
        """Destroy all in-memory state; keep only what fsync already wrote."""
        self.proxy.blackholed = True
        self.proxy.kill_connections()
        if self.client_listener is not None:
            await self.client_listener.stop()
        if self.node is not None:
            await self.node.stop()
        # Deliberately no service.release(): a killed process never flushes.
        self.node = None
        self.service = None
        self.recorder = None
        self.request_server = None
        self.client_listener = None
        self.epoch += 1
        self.kills += 1

    async def restart(self, wipe_disk: bool = False):
        """Boot a new incarnation; caller then runs start() semantics via
        ``recover()`` (rejoin a running group) on the returned service."""
        if wipe_disk:
            shutil.rmtree(self.directory, ignore_errors=True)
        self.proxy.blackholed = False
        await self._boot()
        return self.service

    async def recover(self, timeout: float = 30.0) -> Dict[str, Any]:
        """Drive the service's state-transfer catch-up to completion."""
        future = self.service.recover()
        return await asyncio.wait_for(_await_future(future), timeout)

    async def execute(self, fault: ProcessFault) -> Dict[str, Any]:
        """Run one declarative kill/restart fault against this replica."""
        if fault.victim != self.index:
            raise ValueError(f"fault targets {fault.victim}, this is {self.index}")
        await asyncio.sleep(fault.kill_after_s)
        await self.kill()
        await asyncio.sleep(fault.downtime_s)
        await self.restart(wipe_disk=fault.wipe_disk)
        return await self.recover()

    async def stop(self) -> None:
        """Clean shutdown (flushes durable files), for test teardown."""
        if self.client_listener is not None:
            await self.client_listener.stop()
        if self.service is not None:
            self.service.release()
        if self.node is not None:
            await self.node.stop()
        self.node = None
        self.service = None
        self.request_server = None
        self.client_listener = None


async def _await_future(future) -> Any:
    return await future
