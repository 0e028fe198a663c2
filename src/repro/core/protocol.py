"""Protocol base class, execution context and message router.

Mirrors the paper's Sec. 3: every protocol running in SINTRA is an
instance of :class:`Protocol`, uniquely identified by its protocol
identifier ``pid``, which is included in all cryptographic operations of
the instance.  Protocols are written *sans-I/O*: they react to
``on_message`` calls and API calls, and interact with the world only
through a :class:`Context` — which is implemented both by the
discrete-event simulator runtime and by the asyncio/TCP runtime.

The paper's local events map onto this interface as follows: SEND/PROPOSE
are API calls on the protocol object; DELIVER/DECIDE are values pushed
into runtime queues/futures (via :meth:`Context.effect`, so they take
effect at the handler's CPU completion time in the simulator); ABORT is
the :meth:`Protocol.abort` call.
"""

from __future__ import annotations

import abc
import logging
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.common.errors import Malformed, PidCollision
from repro.core.schema import conforms
from repro.crypto.dealer import PartyCrypto
from repro.obs.recorder import NULL as NULL_RECORDER
from repro.obs.recorder import Recorder

logger = logging.getLogger("repro.core")


class Context(abc.ABC):
    """Runtime services available to a protocol instance.

    Attributes set by the runtime:
        node_id: this party's 0-based index.
        n, t: group size and fault threshold.
        crypto: this party's :class:`PartyCrypto` bundle.
        router: the party's message :class:`Router`.
        obs: the runtime's :class:`~repro.obs.recorder.Recorder`
            (the no-op :data:`~repro.obs.recorder.NULL` by default, so
            direct-drive unit tests need no setup).
    """

    node_id: int
    n: int
    t: int
    crypto: PartyCrypto
    router: "Router"
    obs: Recorder = NULL_RECORDER

    @abc.abstractmethod
    def send(self, dst: int, pid: str, mtype: str, payload: Any) -> None:
        """Send a protocol message over the authenticated link to ``dst``."""

    def broadcast(self, pid: str, mtype: str, payload: Any) -> None:
        """Send to all parties, including this one (via the local loop)."""
        for dst in range(self.n):
            self.send(dst, pid, mtype, payload)

    @abc.abstractmethod
    def effect(self, fn: Callable, *args: Any) -> None:
        """Apply ``fn(*args)`` at this handler's completion time.

        Used for protocol outputs (DELIVER/DECIDE events) so that, under
        the simulator, applications observe them only once the node's CPU
        has actually finished the work that produced them.
        """

    @abc.abstractmethod
    def defer(self, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` as a fresh unit of CPU work on this node."""

    @abc.abstractmethod
    def new_queue(self) -> Any:
        """A runtime FIFO queue (``put(item)`` / ``get()`` / ``can_get()``)."""

    @abc.abstractmethod
    def new_future(self) -> Any:
        """A runtime one-shot future (``resolve(value)`` / ``done``)."""

    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds (virtual under the simulator)."""

    def api(self, fn: Callable[[], None]) -> None:
        """Run an API-triggered protocol action as work on this node.

        Called by protocol API methods (``send``, ``propose``, ...) so the
        action is executed on the party's CPU: immediately when already
        inside a handler, otherwise as a freshly scheduled unit of work.
        The default runs ``fn`` synchronously (suitable for direct-drive
        unit tests); the simulator runtime overrides it.
        """
        fn()

    def set_timer(self, delay: float, fn: Callable[[], None]) -> "Timer":
        """Schedule ``fn`` as node work after ``delay`` seconds.

        SINTRA's safety never depends on timers (the model is fully
        asynchronous); they serve retries only: client request retries
        and the recovering replica's state-transfer pull retry.
        """
        raise NotImplementedError("this context provides no timers")


class Timer:
    """Cancellable handle returned by :meth:`Context.set_timer`."""

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def active(self) -> bool:
        return not self._cancelled


class Router:
    """Per-party demultiplexer from wire messages to protocol instances.

    Messages may arrive before the local instance exists (normal in an
    asynchronous network: a fast peer can be a protocol step ahead), so
    unknown pids are buffered and replayed on registration.  Messages for
    pids that have already terminated are dropped.

    A handler runs only on a live instance, and input is checked once,
    here: a message its protocol's :attr:`~Protocol.MESSAGES` does not
    admit never reaches the handler and is recorded in :attr:`errors` as
    ``(pid, sender, Malformed(mtype))``.  An exception a handler raises is
    a bug, and propagates.
    """

    def __init__(self, buffer_limit: int = 100_000, recorder: Optional[Recorder] = None):
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self._instances: Dict[str, "Protocol"] = {}
        self._buffers: Dict[str, List[Tuple[int, str, Any]]] = {}
        self._tombstones: Set[str] = set()
        self._replaying: Set[str] = set()
        self._buffer_limit = buffer_limit
        self._buffered_count = 0
        #: refused messages (and, on TCP, the handler bugs it logged)
        self.errors: List[Tuple[str, int, Exception]] = []
        self.dropped = 0
        #: passive observers ``obs(sender, pid, mtype, payload)`` called
        #: for every message handed to a protocol instance (including
        #: buffered replays).  Used by the adversary strategies and the
        #: heal loop's equivocation monitor to watch protocol traffic
        #: without touching protocol internals.  Observer exceptions are
        #: *not* contained: an invariant violation must abort the run.
        self.observers: List[Callable[[int, str, str, Any], None]] = []

    def register(self, protocol: "Protocol") -> None:
        pid = protocol.pid
        if pid in self._instances:
            raise PidCollision(f"protocol id {pid!r} already registered")
        if pid in self._tombstones:
            raise PidCollision(f"protocol id {pid!r} was already terminated")
        self._instances[pid] = protocol
        if self._buffers.get(pid):
            # Replay buffered early messages in a fresh unit of work: the
            # instance is still mid-construction here (register is called
            # from the base-class constructor).  Until the replay runs,
            # new arrivals keep buffering so per-sender FIFO is preserved.
            self._replaying.add(pid)
            protocol.ctx.defer(lambda: self._drain(pid))

    def _drain(self, pid: str) -> None:
        self._replaying.discard(pid)
        while True:
            protocol = self._instances.get(pid)
            pending = self._buffers.get(pid)
            if protocol is None or not pending:
                break
            sender, mtype, payload = pending.pop(0)
            self._buffered_count -= 1
            self._invoke(protocol, sender, mtype, payload)
        if not self._buffers.get(pid):
            self._buffers.pop(pid, None)

    def unregister(self, pid: str) -> None:
        self._instances.pop(pid, None)
        self._tombstones.add(pid)
        self._replaying.discard(pid)
        dropped = self._buffers.pop(pid, [])
        self._buffered_count -= len(dropped)

    def dispatch(self, sender: int, pid: str, mtype: str, payload: Any) -> None:
        if pid not in self._replaying:
            protocol = self._instances.get(pid)
            if protocol is not None:
                self._invoke(protocol, sender, mtype, payload)
                return
            if pid in self._tombstones:
                self.dropped += 1
                return
        if self._buffered_count >= self._buffer_limit:
            self.dropped += 1
            if self.obs.enabled:
                self.obs.count("router.dropped")
            logger.warning("router buffer full; dropping message for %s", pid)
            return
        self._buffers.setdefault(pid, []).append((sender, mtype, payload))
        self._buffered_count += 1
        if self.obs.enabled:
            self.obs.count("router.buffered")

    def _invoke(self, protocol: "Protocol", sender: int, mtype: str, payload: Any) -> None:
        if self.obs.enabled:
            self.obs.count("router.dispatched")
        for obs in self.observers:
            obs(sender, protocol.pid, mtype, payload)
        schema = protocol.MESSAGES
        if schema is not None and not (mtype in schema and conforms(payload, schema[mtype])):
            self.errors.append((protocol.pid, sender, Malformed(mtype)))
            if self.obs.enabled:
                self.obs.count("router.malformed")
            logger.debug("malformed %r for %s from %d", mtype, protocol.pid, sender)
            return
        protocol.on_message(sender, mtype, payload)

    @property
    def active_pids(self) -> List[str]:
        return sorted(self._instances)


class Protocol:
    """Base class of every SINTRA protocol (paper Fig. 2)."""

    #: ``{mtype: spec}`` (:mod:`repro.core.schema`): the messages this
    #: protocol receives; ``None`` (test doubles) checks nothing
    MESSAGES: Optional[Dict[str, Any]] = None

    def __init__(self, ctx: Context, pid: str):
        self.ctx = ctx
        self.pid = pid
        self.halted = False
        #: the runtime's recorder; per-instance phase timings use
        #: :attr:`obs_scope` so parties sharing a recorder never collide.
        self.obs = ctx.obs
        self.obs_scope = (ctx.node_id, pid)
        ctx.router.register(self)

    # -- messaging helpers (named to avoid clashing with the paper's
    # ``send`` API on Broadcast/Channel subclasses) ---------------------------

    def unicast(self, dst: int, mtype: str, payload: Any) -> None:
        self.ctx.send(dst, self.pid, mtype, payload)

    def send_all(self, mtype: str, payload: Any) -> None:
        self.ctx.broadcast(self.pid, mtype, payload)

    # -- lifecycle ---------------------------------------------------------------

    def on_message(self, sender: int, mtype: str, payload: Any) -> None:
        """Handle one authenticated message; overridden by protocols."""
        raise NotImplementedError

    def halt(self) -> None:
        """Terminate locally and release routing state."""
        if not self.halted:
            self.halted = True
            self.ctx.router.unregister(self.pid)

    def abort(self) -> None:
        """Force immediate local termination (paper: the ABORT event).

        The local instance is cleaned up; the state of other parties
        engaged in the protocol is unspecified, as in the paper.
        """
        self.halt()
