"""Aggregated broadcast channels (paper Sec. 2.7).

Virtual channels that multiplex many instances of a broadcast primitive:
``n`` broadcasts run in parallel, one per sender; whenever the instance of
sender ``j`` with sequence number ``s`` delivers, its payload is handed to
the application and a fresh instance ``(j, s+1)`` is allocated.  These are
*virtual* protocols: they exchange no messages of their own over the
network.

They guarantee weaker properties than atomic broadcast — agreement without
ordering (reliable channel) or only consistency (consistent channel) — and
are the cheap alternative measured in Table 1.

Termination: a party closes by sending a special termination request as
its last message; once requests from ``t + 1`` senders have been
delivered, the still-active broadcasts are aborted and the channel
terminates.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Type

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError
from repro.core.broadcast.base import Broadcast
from repro.core.channel.base import Channel
from repro.core.protocol import Context
from repro.core.schema import conforms

KIND_APP = 0
KIND_CLOSE = 1


def _frame(kind: int, data: bytes) -> bytes:
    return encode((kind, data))


def _unframe(payload: bytes) -> Optional[Tuple[int, bytes]]:
    try:
        frame = decode(payload)
    except EncodingError:
        return None
    return frame if conforms(frame, ({KIND_APP, KIND_CLOSE}, bytes)) else None


class BroadcastChannel(Channel):
    """Base of the reliable and consistent channels.

    Subclasses set :attr:`broadcast_cls` to the primitive to aggregate.
    """

    broadcast_cls: Type[Broadcast] = Broadcast  # overridden
    kind = "bcast"
    MESSAGES: Dict[str, Any] = {}  # virtual: the broadcasts take all traffic

    def __init__(self, ctx: Context, pid: str, max_pending=None):
        super().__init__(ctx, pid, max_pending=max_pending)
        #: active instance per sender
        self._active: Dict[int, Broadcast] = {}
        self._seq: Dict[int, int] = {j: 0 for j in range(ctx.n)}
        #: this party's not-yet-sent backlog (one instance in flight at a time)
        self._backlog: List[bytes] = []
        self._in_flight = False
        #: when our in-flight instance was sent (recorded only when observed)
        self._in_flight_since: Optional[float] = None
        self._close_senders: set = set()
        for j in range(ctx.n):
            self._allocate(j)

    # -- instance management -------------------------------------------------------

    def _allocate(self, j: int) -> None:
        seq = self._seq[j]
        if self.obs.enabled:
            self.obs.count(f"channel.{self.kind}.instances")
        bc = self.broadcast_cls(self.ctx, f"{self.pid}/bc.{seq}", j)
        bc.on_deliver = self._on_instance_delivered
        self._active[j] = bc

    def _on_instance_delivered(self, bc: Broadcast, payload: bytes) -> None:
        if self._terminated:
            return
        j = bc.sender
        seq = self._seq[j]
        self._seq[j] += 1
        self._allocate(j)
        frame = _unframe(payload)
        if frame is not None:
            kind, data = frame
            if kind == KIND_CLOSE:
                self._close_senders.add(j)
                if len(self._close_senders) >= self.ctx.t + 1:
                    self._shutdown()
                    return
            else:
                self._emit_output(j, seq, data)
        if j == self.ctx.node_id:
            self._in_flight = False
            if self.obs.enabled:
                started = self._in_flight_since
                if started is not None:
                    # One full broadcast instance of our own, send to local
                    # delivery — the per-slot cost of this channel kind.
                    self.obs.observe(
                        f"phase.{self.kind}.slot", self.ctx.now() - started
                    )
                    self._in_flight_since = None
            self._pump()

    # -- sending -----------------------------------------------------------------------

    def _pending_count(self) -> int:
        return len(self._backlog) + (1 if self._in_flight else 0)

    def _submit(self, data: bytes) -> None:
        self._backlog.append(_frame(KIND_APP, data))
        self._pump()

    def _submit_close(self) -> None:
        self._backlog.append(_frame(KIND_CLOSE, b""))
        self._pump()

    def _pump(self) -> None:
        if self._in_flight or not self._backlog or self._terminated:
            return
        self._in_flight = True
        if self.obs.enabled:
            self._in_flight_since = self.ctx.now()
        payload = self._backlog.pop(0)
        self._active[self.ctx.node_id].send(payload)

    # -- termination ------------------------------------------------------------------------

    def _shutdown(self) -> None:
        for bc in self._active.values():
            if not bc.halted:
                bc.abort()
        self._terminate()
