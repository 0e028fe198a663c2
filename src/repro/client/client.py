"""The client request lifecycle: retry, failover, and the ``t + 1`` vote.

:class:`SintraClient` is the transport-agnostic core driven by a *link*
(sim: :mod:`repro.client.simnet`; TCP: :mod:`repro.client.tcpnet`).  One
request's life:

1. **submit** — the request gets the next per-client sequence number and
   is sent to the current *contact replica* only (the cheap common case:
   one submission, one channel entry).
2. **timeout → failover** — if ``t + 1`` matching replies do not arrive
   within the timeout, the client assumes the contact is crashed, slow,
   or Byzantine-silent and **fails over**: every retransmission from now
   on is broadcast to all ``n`` replicas, so at least ``n - t ≥ 2t + 1``
   honest ones receive it and the vote must eventually fill.  Timeouts
   follow a seeded capped-exponential backoff
   (:class:`repro.net.tcp.BackoffPolicy`), so retransmission storms are
   both bounded and replayable from one integer seed.
3. **overload → backoff** — a retryable ``STATUS_OVERLOADED`` reply (the
   replica shed the request, see :mod:`repro.client.server`) cancels the
   timer and schedules the retransmission after the backoff delay
   instead: load shedding slows the client down rather than tightening
   its retry loop.
4. **vote → done** — replies feed the per-request
   :class:`~repro.client.protocol.ReplyVote`; the first value backed by
   ``t + 1`` distinct replicas resolves the request future.  Late or
   extra replies for a completed request are ignored.

Retries are infinite by default (the asynchronous model promises no
timing, so giving up is a policy choice); with ``max_attempts`` set the
future is rejected with
:class:`~repro.common.errors.RetriesExhausted` instead.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol

from repro.client.protocol import STATUS_OK, STATUS_OVERLOADED, ReplyVote
from repro.common import rng as rng_mod
from repro.common.errors import RetriesExhausted
from repro.net.tcp import BackoffPolicy
from repro.obs import recorder as _recorder


class Timer(Protocol):
    def cancel(self) -> None: ...


class ClientLink(Protocol):
    """What a transport must provide to drive :class:`SintraClient`."""

    n: int  # group size
    t: int  # fault threshold

    def send(self, replica: int, seq: int, command: bytes) -> None:
        """Best-effort: deliver ``(client_id, seq, command)`` to ``replica``."""
        ...

    def set_timer(self, delay: float, fn: Any) -> Timer:
        ...

    def new_future(self) -> Any:
        """A future with ``resolve(value)`` and ``reject(error)``."""
        ...


class _Request:
    __slots__ = ("seq", "command", "vote", "future", "attempts",
                 "broadcasting", "timer", "resend_pending")

    def __init__(self, seq: int, command: bytes, vote: ReplyVote,
                 future: Any):
        self.seq = seq
        self.command = command
        self.vote = vote
        self.future = future
        self.attempts = 0
        self.broadcasting = False
        self.timer: Optional[Timer] = None
        self.resend_pending = False


class SintraClient:
    """One external client of the replicated group.

    ``seed`` makes the whole retry schedule deterministic (it derives the
    backoff jitter stream via ``derive(seed, "client", client_id)``);
    without it a fresh system stream decorrelates real clients.
    """

    def __init__(
        self,
        link: ClientLink,
        client_id: str,
        timeout: float = 0.5,
        max_attempts: Optional[int] = None,
        contact: int = 0,
        seed: Optional[int] = None,
        backoff_cap: float = 8.0,
        obs: Optional[_recorder.Recorder] = None,
    ):
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if max_attempts is not None and max_attempts < 1:
            raise ValueError("max_attempts must be at least 1 (or None)")
        if not 0 <= contact < link.n:
            raise ValueError(f"contact replica {contact} outside group "
                             f"of {link.n}")
        self.link = link
        self.client_id = client_id
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.contact = contact
        self.obs = obs if obs is not None else _recorder.NULL
        if seed is not None:
            rng = rng_mod.derive(seed, "client", client_id)
        else:
            rng = rng_mod.fresh()
        self.backoff = BackoffPolicy(
            base=timeout, cap=max(backoff_cap, timeout), rng=rng,
        )
        self._next_seq = 0
        self._pending: Dict[int, _Request] = {}
        #: newest membership view any replica has advertised in a reply
        self.membership_epoch = 0
        self.roster_digest = b""

    # -- submission ----------------------------------------------------------------

    def submit(self, command: bytes) -> Any:
        """Send one command; the returned future resolves with the voted
        result bytes (or rejects with ``RetriesExhausted``)."""
        seq = self._next_seq
        self._next_seq += 1
        request = _Request(
            seq, bytes(command),
            ReplyVote(self.link.t + 1), self.link.new_future(),
        )
        self._pending[seq] = request
        if self.obs.enabled:
            self.obs.count("client.requests")
            self.obs.phase((self.client_id, seq), "client.request.e2e")
        self._transmit(request)
        self._arm(request, self.backoff.delay(0))
        return request.future

    def pending(self) -> int:
        return len(self._pending)

    def _transmit(self, request: _Request) -> None:
        if request.broadcasting:
            for replica in range(self.link.n):
                self.link.send(replica, request.seq, request.command)
        else:
            self.link.send(self.contact, request.seq, request.command)

    def _arm(self, request: _Request, delay: float) -> None:
        request.timer = self.link.set_timer(
            delay, lambda: self._on_timeout(request.seq))

    # -- timeouts and retries --------------------------------------------------------

    def _on_timeout(self, seq: int) -> None:
        request = self._pending.get(seq)
        if request is None:
            return
        request.timer = None
        request.resend_pending = False
        if not self._bump_attempts(request):
            return
        if not request.broadcasting:
            # Failover: stop trusting the contact, talk to everyone.
            request.broadcasting = True
            if self.obs.enabled:
                self.obs.count("client.failovers")
        if self.obs.enabled:
            self.obs.count("client.retransmits")
        self._transmit(request)
        self._arm(request, self.backoff.delay(request.attempts))

    def _bump_attempts(self, request: _Request) -> bool:
        """Count one more attempt; False if the request just gave up."""
        request.attempts += 1
        if (self.max_attempts is not None
                and request.attempts >= self.max_attempts):
            del self._pending[request.seq]
            if request.timer is not None:
                request.timer.cancel()
                request.timer = None
            if self.obs.enabled:
                self.obs.count("client.exhausted")
                self.obs.phase_end((self.client_id, request.seq))
            request.future.reject(RetriesExhausted(
                f"request ({self.client_id!r}, {request.seq}) gave up after "
                f"{request.attempts} attempts without t+1 matching replies"
            ))
            return False
        return True

    def _resend(self, seq: int) -> None:
        """Retransmit after an ``OVERLOADED`` backoff (no failover)."""
        request = self._pending.get(seq)
        if request is None:
            return
        request.timer = None
        request.resend_pending = False
        if self.obs.enabled:
            self.obs.count("client.retransmits")
        self._transmit(request)
        self._arm(request, self.backoff.delay(request.attempts))

    # -- replies ---------------------------------------------------------------------

    def on_reply(self, replica: int, seq: int, status: int,
                 result: bytes, epoch: int, roster_digest: bytes) -> None:
        """Feed one reply from ``replica`` (transport-authenticated id)."""
        self._note_membership(replica, epoch, roster_digest)
        request = self._pending.get(seq)
        if request is None:
            if self.obs.enabled:
                self.obs.count("client.late_replies")
            return
        if self.obs.enabled:
            self.obs.count("client.replies")

        if status == STATUS_OVERLOADED:
            if self.obs.enabled:
                self.obs.count("client.overloaded")
            request.vote.add(replica, STATUS_OVERLOADED, b"")
            if not request.resend_pending:
                # Shed: retransmit after backoff instead of at the timer —
                # the replica asked us to slow down, so we do.  No
                # failover: the replica is alive, just loaded.
                request.resend_pending = True
                if request.timer is not None:
                    request.timer.cancel()
                    request.timer = None
                if self._bump_attempts(request):
                    request.timer = self.link.set_timer(
                        self.backoff.delay(request.attempts),
                        lambda: self._resend(seq))
            return

        winner = request.vote.add(replica, STATUS_OK, result)
        if winner is None:
            return
        del self._pending[seq]
        if request.timer is not None:
            request.timer.cancel()
            request.timer = None
        if self.obs.enabled:
            self.obs.count("client.completed")
            if request.vote.conflicting_replicas():
                self.obs.count("client.conflicting_replies",
                               request.vote.conflicting_replicas())
            self.obs.phase_end((self.client_id, seq))
        request.future.resolve(winner)

    # -- membership tracking -----------------------------------------------------------

    def _note_membership(self, replica: int, epoch: int,
                         roster_digest: bytes) -> None:
        """Adopt a strictly newer membership view advertised by a reply.

        A reply is this client's only window into the group, so the
        trailing ``(epoch, roster-digest)`` pair doubles as a
        reconfiguration beacon.  On a newer epoch the client refreshes its
        contact to the advertising replica: that replica is demonstrably
        live *in the new epoch*, whereas the old contact may be exactly
        the one that was replaced.  A lying replica can only make the
        client switch contacts — the ``t + 1`` reply vote, not the
        contact choice, protects the result, and the timeout failover
        path recovers from any bad contact.
        """
        if epoch <= self.membership_epoch:
            return
        self.membership_epoch = epoch
        self.roster_digest = bytes(roster_digest)
        if replica != self.contact:
            self.contact = replica
        if self.obs.enabled:
            self.obs.count("client.membership.refreshes")
            self.obs.set_gauge("client.membership.epoch", float(epoch))


__all__ = ["SintraClient", "ClientLink", "Timer"]
