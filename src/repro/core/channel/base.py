"""The abstract ``Channel`` interface (paper Sec. 3.4).

A channel is a continuous protocol with on-line inputs and outputs: a
party may ``send`` any number of messages and must be prepared to
``receive`` as many payloads as the channel outputs.  Closing follows the
paper's termination discipline: a party signals ``close``; the channel of
a group terminates once ``t + 1`` parties' termination requests have gone
through, so it closes when all honest parties together close it and stays
open while at least one honest party keeps it open.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.common.errors import ChannelCongested, ProtocolError
from repro.core.protocol import Context, Protocol


class Channel(Protocol):
    """Abstract broadcast channel.

    ``max_pending`` bounds the send buffer (``None`` = unbounded): when
    full, ``can_send()`` is false and ``send`` raises
    :class:`~repro.common.errors.ChannelCongested` — the paper's "send may
    block if the channel is congested and all buffers are full;
    applications that do not want to be blocked may call canSend() first".
    """

    #: short channel-kind tag namespacing this channel's observability
    #: instruments (``channel.<kind>.*`` counters, ``phase.<kind>.e2e``)
    kind: str = "channel"

    def __init__(self, ctx: Context, pid: str, max_pending: Optional[int] = None):
        super().__init__(ctx, pid)
        self.outputs = ctx.new_queue()
        self.closed = ctx.new_future()
        #: optional listener called (at delivery-completion time) with each
        #: ``(origin, seq, data)`` in delivery order, *instead of* ``outputs``
        self.on_output: Optional[Callable[[int, int, bytes], None]] = None
        self.delivered = 0  #: payloads delivered so far
        self.max_pending = max_pending
        self._submitted = 0  # sends accepted but not yet in _pending_count
        self._close_requested = False
        self._terminated = False
        #: submit time of this party's own payloads, for the end-to-end
        #: (send -> local delivery) latency histogram; recording only
        self._send_times: dict = {}

    # -- paper API ----------------------------------------------------------------

    def send(self, message: bytes) -> None:
        """Broadcast ``message`` on the channel (any party, any number)."""
        if self._close_requested:
            raise ProtocolError("cannot send after close")
        if not isinstance(message, (bytes, bytearray)):
            raise ProtocolError("channel payloads are byte strings")
        if not self.can_send():
            raise ChannelCongested(
                f"channel {self.pid!r} send buffer is full "
                f"({self.max_pending} pending)"
            )
        data = bytes(message)
        self._submitted += 1
        if self.obs.enabled:
            self.obs.count(f"channel.{self.kind}.sent")
            self._send_times.setdefault(data, self.ctx.now())

        def run() -> None:
            self._submitted -= 1
            self._submit(data)

        self.ctx.api(run)

    def receive(self) -> Any:
        """Future resolving with the next delivered payload."""
        return self.outputs.get()

    def can_send(self) -> bool:
        if self._close_requested:
            return False
        if self.max_pending is None:
            return True
        return self._submitted + self._pending_count() < self.max_pending

    def _pending_count(self) -> int:
        """Payloads accepted but not yet delivered (subclass hook)."""
        return 0

    def pending(self) -> int:
        """Accepted-but-undelivered payloads (the submit backlog).

        The quantity ``max_pending`` bounds; the batching channel drains
        it by up to ``max_batch`` payloads per agreement round.
        """
        return self._submitted + self._pending_count()

    def can_receive(self) -> bool:
        return self.outputs.can_get()

    def close(self) -> None:
        """Signal that this party is ready to close the channel."""
        if self._close_requested:
            return
        self._close_requested = True
        self.ctx.api(self._submit_close)

    def close_wait(self) -> Any:
        """``close()`` and return the future resolving at termination."""
        self.close()
        return self.closed

    def wait_done(self) -> Any:
        """Future resolving once the channel has terminated."""
        return self.closed

    def is_closed(self) -> bool:
        return self._terminated

    # -- subclass hooks ---------------------------------------------------------------

    def _submit(self, data: bytes) -> None:
        raise NotImplementedError

    def _submit_close(self) -> None:
        raise NotImplementedError

    def _terminate(self) -> None:
        """Close the channel locally (the CLOSE-DONE event)."""
        if not self._terminated:
            self._terminated = True
            if self.obs.enabled:
                self.obs.phase_end(self.obs_scope)  # flush any open phase
            self.ctx.effect(self.closed.resolve, None)
            self.halt()

    def _emit_output(self, origin: int, seq: int, data: bytes) -> None:
        """Hand one payload to the listener, else to ``outputs``, at
        completion time; the channel keeps no copy."""
        self.delivered += 1
        if self.obs.enabled:
            self.obs.count(f"channel.{self.kind}.delivered")
            sent_at = self._send_times.pop(data, None)
            if sent_at is not None:
                self.obs.observe(
                    f"phase.{self.kind}.e2e", self.ctx.now() - sent_at
                )
        if self.on_output is not None:
            self.ctx.effect(self.on_output, origin, seq, data)
        else:
            self.ctx.effect(self.outputs.put, data)
