"""Simulation runtime: wires parties, protocols and the network together.

:class:`SimRuntime` owns one :class:`~repro.net.sim.Simulator`, one
:class:`~repro.net.sim.SimNode` (sequential CPU) and one
:class:`~repro.core.protocol.Router` per party, and a simulated network
that transports sealed wire frames with topology-dependent latency,
per-pair FIFO ordering, bandwidth-dependent transmission time, and the
configured fault plan.

Usage sketch::

    group = fast_group(4, 1)
    rt = SimRuntime(group, latency=lan_latency(), hosts=LAN_HOSTS, seed=1)
    rbc = [ReliableBroadcast(ctx, "rbc", 0) for ctx in rt.contexts]
    rbc[0].send(b"hello")
    rt.run_all([r.delivered for r in rbc])
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ReproError
from repro.core.protocol import Context, Router
from repro.crypto.dealer import GroupConfig
from repro.net import links
from repro.net.costmodel import CostModel, HostSpec
from repro.net.faults import FaultPlan
from repro.net.latency import LatencyModel, UniformLatency
from repro.net.message import pack_body, unpack_body
from repro.net.sim import SimFuture, SimNode, SimQueue, Simulator
from repro.obs.recorder import NULL as NULL_RECORDER
from repro.obs.recorder import Recorder

#: Default per-message handling overhead (seconds) when a host spec does not
#: provide one; covers serialization, MAC and bookkeeping.
DEFAULT_OVERHEAD_S = 0.002


class SimContext(Context):
    """The :class:`Context` implementation backed by the simulator."""

    def __init__(self, runtime: "SimRuntime", node_id: int):
        self.runtime = runtime
        self.node_id = node_id
        self.n = runtime.group.n
        self.t = runtime.group.t
        self.crypto = runtime.group.party(node_id)
        self.router = runtime.routers[node_id]
        self.node = runtime.nodes[node_id]
        self.obs = runtime.obs

    # -- messaging ------------------------------------------------------------

    def send(self, dst: int, pid: str, mtype: str, payload: Any) -> None:
        self._emit(dst, pid, mtype, pack_body(pid, mtype, payload))

    def broadcast(self, pid: str, mtype: str, payload: Any) -> None:
        body = pack_body(pid, mtype, payload)  # one body, sealed per link
        for dst in range(self.n):
            self._emit(dst, pid, mtype, body)

    def _emit(self, dst: int, pid: str, mtype: str, body: bytes) -> None:
        wire = self.runtime.seal(self.crypto, dst, body)
        self.runtime.record_protocol_message(pid, mtype, len(wire))
        self.node.emit(dst, wire)

    # -- effects / scheduling ---------------------------------------------------

    def effect(self, fn: Callable, *args: Any) -> None:
        if self.node._effects is not None:  # inside a handler on this CPU
            self.node.effect(fn, *args)
        else:  # API-driven (e.g. deliver_closing from application code)
            self.runtime.sim.schedule(0.0, fn, *args)

    def defer(self, fn: Callable[[], None]) -> None:
        if self.node._outbox is not None:  # inside a handler on this CPU
            self.node.effect(self.runtime.run_on_node, self.node_id, fn)
        else:
            self.runtime.sim.schedule(
                0.0, self.runtime.run_on_node, self.node_id, fn
            )

    def api(self, fn: Callable[[], None]) -> None:
        if self.node._outbox is not None:  # already executing on this CPU
            fn()
        else:
            self.runtime.sim.schedule(
                0.0, self.runtime.run_on_node, self.node_id, fn
            )

    def set_timer(self, delay: float, fn: Callable[[], None]):
        from repro.core.protocol import Timer

        timer = Timer()

        def fire() -> None:
            if timer.active:
                self.runtime.run_on_node(self.node_id, fn)

        self.runtime.sim.schedule(delay, fire)
        return timer

    # -- primitives ----------------------------------------------------------------

    def new_queue(self) -> SimQueue:
        return self.runtime.sim.queue()

    def new_future(self) -> SimFuture:
        return self.runtime.sim.future()

    def now(self) -> float:
        return self.runtime.sim.now


class SimRuntime:
    """A complete simulated deployment of one SINTRA group."""

    def __init__(
        self,
        group: GroupConfig,
        latency: Optional[LatencyModel] = None,
        hosts: Optional[Sequence[HostSpec]] = None,
        seed: object = 0,
        faults: Optional[FaultPlan] = None,
        overhead_s: Optional[float] = None,
        recorder: Optional[Recorder] = None,
    ):
        self.group = group
        self.latency = latency or UniformLatency()
        self.sim = Simulator(seed=seed)
        self.faults = faults or FaultPlan()
        #: observability recorder shared by all parties; spans and phase
        #: durations are measured on the *simulated* clock, so a recorded
        #: run is exactly as deterministic as an unrecorded one.
        self.obs = recorder if recorder is not None else NULL_RECORDER
        if recorder is not None:
            recorder.bind_clock(lambda: self.sim.now)
        n = group.n
        if hosts is not None and len(hosts) < n:
            raise ReproError(f"need at least {n} host specs, got {len(hosts)}")
        op_scale = group.security.nominal_bits / group.security.sig_modbits
        self.nodes: List[SimNode] = []
        for i in range(n):
            host = hosts[i] if hosts is not None else None
            cost_model = CostModel(host) if host else None
            node_overhead = (
                overhead_s
                if overhead_s is not None
                else (host.overhead_ms / 1000.0 if host else DEFAULT_OVERHEAD_S)
            )
            self.nodes.append(
                SimNode(
                    self.sim,
                    i,
                    cost_model=cost_model,
                    overhead_s=node_overhead,
                    op_scale=op_scale,
                    recorder=self.obs,
                )
            )
        self.routers = [Router(recorder=self.obs) for _ in range(n)]
        self.contexts: List[Context] = [SimContext(self, i) for i in range(n)]
        #: per slot, the process running there; bumped by :meth:`restart`
        self.incarnations = [0] * n
        #: dedicated RNG stream for the fault plan, derived from the root
        #: seed: fault draws never perturb latency sampling (which stays on
        #: ``sim.rng``), so removing a fault directive from a schedule
        #: leaves the rest of the run bit-identical — what makes shrunk
        #: fuzzer counterexamples replayable.
        self.fault_rng = self.sim.derive("faults")
        #: wire-level interceptors ``tap(src, dst, wire, depart)`` applied
        #: to every outbound frame after the crash filter: return ``None``
        #: to pass the frame through unchanged, or a list of
        #: ``(dst, wire)`` replacement deliveries (empty list = drop).
        #: Tests and the layer benchmarks capture frames here; a faulty
        #: party's traffic is altered above the link, by its strategy
        #: (:func:`repro.adversary.context.infect`).
        self.wire_taps: List[
            Callable[[int, int, bytes, float], Optional[List[Tuple[int, bytes]]]]
        ] = []
        #: callbacks ``cb(dst)`` invoked after every inbound frame has been
        #: handled at ``dst`` — the hook protocol invariant checkers use to
        #: re-evaluate after each delivery.
        self.delivery_listeners: List[Callable[[int], None]] = []
        self._fifo_last: Dict[Tuple[int, int], float] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        self.auth_failures = 0
        #: per-(pid, mtype) counts of protocol messages handed to the
        #: network — the data behind the message-complexity tests.
        self.protocol_messages: Dict[Tuple[str, str], int] = {}
        self.protocol_bytes: Dict[str, int] = {}

    def record_protocol_message(self, pid: str, mtype: str, nbytes: int) -> None:
        key = (pid, mtype)
        self.protocol_messages[key] = self.protocol_messages.get(key, 0) + 1
        self.protocol_bytes[pid] = self.protocol_bytes.get(pid, 0) + nbytes
        if self.obs.enabled:
            self.obs.count("net.messages")
            self.obs.count("net.bytes", nbytes)
            self.obs.count(f"net.msg.{mtype}")

    def messages_for_prefix(self, prefix: str) -> int:
        """Total messages sent for protocol ids starting with ``prefix``."""
        return sum(
            count
            for (pid, _), count in self.protocol_messages.items()
            if pid.startswith(prefix)
        )

    # -- node execution ------------------------------------------------------------

    def run_on_node(self, node_id: int, fn: Callable[[], None]) -> None:
        """Execute ``fn`` as one unit of CPU work on ``node_id``."""
        self.nodes[node_id].process(fn, self._dispatch)

    # -- network -----------------------------------------------------------------------

    def _dispatch(self, src: int, depart: float, send_tuple: Tuple[Any, ...]) -> None:
        dst, wire = send_tuple
        if self.faults.drops(src, depart):
            return
        deliveries: List[Tuple[int, bytes]] = [(dst, wire)]
        for tap in self.wire_taps:
            rewritten: List[Tuple[int, bytes]] = []
            for d, w in deliveries:
                out = tap(src, d, w, depart)
                if out is None:
                    rewritten.append((d, w))
                else:
                    rewritten.extend(out)
            deliveries = rewritten
        for d, w in deliveries:
            self._transmit(src, d, w, depart)

    def _transmit(self, src: int, dst: int, wire: bytes, depart: float) -> None:
        self.messages_sent += 1
        self.bytes_sent += len(wire)
        if dst == src:
            arrival = depart
        else:
            # Wire sizes are scaled to the experiment's *nominal* key size:
            # signatures and key-dependent fields grow linearly with the
            # modulus, so a run executed with small actual keys still pays
            # transmission/TCP costs of the configuration it models.
            op_scale = self.group.security.nominal_bits / self.group.security.sig_modbits
            nbytes = int(len(wire) * op_scale)
            delay = self.latency.sample(src, dst, self.sim.rng, nbytes=nbytes)
            delay += self.faults.extra_delay(src, dst, nbytes, depart, self.fault_rng)
            arrival = depart + delay
            last = self._fifo_last.get((src, dst), 0.0)
            arrival = max(arrival, last + 1e-9)  # links are FIFO, like TCP
            self._fifo_last[(src, dst)] = arrival
        self.sim.schedule_at(
            arrival, self._arrive, dst, wire, src, self.incarnations[dst]
        )

    #: frame ``body`` for the link to ``dst``: the sealed
    #: ``(sender, tag, body)`` envelope (:mod:`repro.net.links`)
    seal = staticmethod(links.seal)

    def _arrive(
        self,
        dst: int,
        wire: bytes,
        src: Optional[int] = None,
        incarnation: Optional[int] = None,
    ) -> None:
        if incarnation is not None and incarnation != self.incarnations[dst]:
            return  # sent to a process that has since been restarted
        self.nodes[dst].process(lambda: self._open(dst, wire, src), self._dispatch)

    def _open(self, dst: int, wire: bytes, src: Optional[int]) -> None:
        """Open a sealed frame that arrived at ``dst`` on the link from
        ``src``, whatever sender it claims (:mod:`repro.net.links`)."""
        crypto = self.group.party(dst)
        try:
            if src == dst:
                body = links.open_local(crypto, wire)
            else:
                body = links.open_sealed(crypto, src, wire)
        except ReproError:
            self._refuse()
            return
        assert src is not None  # a frame on no link opens nowhere
        self._route(dst, src, body)

    def _route(self, dst: int, src: int, body: bytes) -> None:
        """Hand an authenticated ``body`` from ``src`` to ``dst``'s router."""
        try:
            msg = unpack_body(src, body)
        except ReproError:
            self._refuse()
            return
        self.routers[dst].dispatch(msg.sender, msg.pid, msg.mtype, msg.payload)
        for cb in self.delivery_listeners:
            cb(dst)

    def _refuse(self) -> None:
        self.auth_failures += 1
        if self.obs.enabled:
            self.obs.count("net.auth_failures")

    # -- process lifecycle --------------------------------------------------------------

    def restart(self, slot: int) -> None:
        """Boot a new process in ``slot``: a fresh router and context.

        A restored or replaced server is a new process that holds only its
        own key material.  The slot's CPU (its :class:`SimNode`) and link
        keys stay; so do the old router's ``observers`` (harness taps) and
        ``errors`` (findings about the slot).  Frames still in flight to
        the old process are dropped when they arrive.  The old process's
        protocol objects keep the old context, so stop them first.
        :class:`~repro.net.lossy.LossyLinkRuntime`'s datagram path is not
        tagged: its link sessions outlive a restart.
        """
        old = self.routers[slot]
        router = self.routers[slot] = Router(recorder=self.obs)
        router.observers = old.observers
        router.errors = old.errors
        self.incarnations[slot] += 1
        self.contexts[slot] = SimContext(self, slot)

    # -- driving the simulation -------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        self.sim.run(until=until, max_events=max_events)

    def run_until(self, fut: SimFuture, limit: float = 1e9) -> Any:
        return self.sim.run_until(fut, limit=limit)

    def run_all(self, futures: Sequence[SimFuture], limit: float = 1e9) -> List[Any]:
        """Run until every future in ``futures`` resolves."""
        for fut in futures:
            self.run_until(fut, limit=limit)
        return [f.value for f in futures]

    def spawn(self, gen) -> Any:
        return self.sim.spawn(gen)

    @property
    def now(self) -> float:
        return self.sim.now

    def router_errors(self) -> List[Tuple[str, int, Exception]]:
        """Every party's refused malformed messages (none in honest runs)."""
        out: List[Tuple[str, int, Exception]] = []
        for router in self.routers:
            out.extend(router.errors)
        return out
