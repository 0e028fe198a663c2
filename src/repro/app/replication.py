"""State-machine replication over the atomic broadcast channel.

The paper's motivating application (Secs. 1 and 2.5): given atomic
broadcast, a fault-tolerant replicated service is obtained immediately by
distributing all state updates through the channel — every honest replica
applies the same commands in the same order, so replicas stay identical
even with ``t`` Byzantine servers in the group (Schneider's state-machine
paradigm).

With ``secure=True`` commands travel on the *secure causal* atomic channel
(Sec. 2.6), so their content stays confidential until ordered — preventing
a corrupted replica from, say, front-running a client's command.

Who is in the group is a value the service *has* (``membership``): the
paper's static group is :class:`StaticGroup`, one that reconfigures is
``repro.membership.Membership``.  Durability is the one subclass
(``repro.recovery.RecoverableService``): its lifecycle differs.
"""

from __future__ import annotations

import abc
import hashlib
from typing import Any, Optional, Tuple

from repro.common.errors import (
    ChannelCongested,
    EpochMismatch,
    ReconfigInProgress,
    ServiceNotOpen,
)
from repro.core.channel.atomic import ChannelResume
from repro.core.party import Party

__all__ = [
    "StateMachine",
    "StaticGroup",
    "ReplicatedService",
    # Re-exported so service callers can catch backpressure distinctly
    # from other protocol errors (see submit()).
    "ChannelCongested",
    "EpochMismatch",
    "ServiceNotOpen",
]


class StateMachine(abc.ABC):
    """A deterministic service replicated by the group.

    ``apply`` must be a pure function of the state and the command:
    determinism is what makes replication equivalent to a single correct
    server.
    """

    @abc.abstractmethod
    def apply(self, command: bytes) -> bytes:
        """Execute one command, mutate the state, return the result."""

    @abc.abstractmethod
    def snapshot(self) -> bytes:
        """A canonical byte representation of the current state."""

    def restore(self, snapshot: bytes) -> None:
        """Replace the state with one previously captured by ``snapshot()``.

        The inverse of ``snapshot()``: afterwards ``self.snapshot()`` must
        equal the argument byte for byte.  Crash recovery depends on it
        (``repro.recovery``), so concrete services should implement it; the
        default raises for state machines that are still one-way.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement restore()"
        )

    def digest(self) -> bytes:
        """Hash of the current state (for replica-equality checks)."""
        return hashlib.sha256(self.snapshot()).digest()


class StaticGroup:
    """The membership of a group that never changes (the paper's model):
    the trivial implementation of what a service asks of its
    ``membership``.  ``repro.membership.Membership`` documents each."""

    epoch = 0
    members = None
    reconfiguring = False
    min_epoch = 0
    is_barrier = None
    on_barrier = None

    def info(self) -> Tuple[int, bytes]:
        # clients read the empty digest as "membership never changes"
        return (0, b"")

    def channel_pid(self, pid: str) -> str:
        return pid

    def step(self, epoch: int, members: Any, payload: bytes) -> None:
        return None

    def admit(self, base: Any) -> Any:
        if base.epoch != 0:
            raise EpochMismatch(
                f"checkpoint is from membership epoch {base.epoch}; a static "
                "group cannot cross epochs (pass membership= to the service)"
            )
        return base

    def enter(self, epoch: int, members: Any) -> None:
        pass


class ReplicatedService:
    """One replica of a service replicated via atomic broadcast.

    Subclasses that must defer channel creation (a recovering replica first
    has to learn the sequence to resume at — see
    ``repro.recovery.service.RecoverableService``) set ``_auto_open_channel``
    to ``False`` and call ``_open_channel()`` themselves.
    """

    _auto_open_channel = True
    membership: Any = StaticGroup()

    def __init__(
        self,
        party: Party,
        pid: str,
        state_machine: StateMachine,
        secure: bool = False,
        **channel_kwargs: Any,
    ):
        self.party = party
        self.pid = pid
        self.state = state_machine
        self.secure = secure
        self._channel_kwargs = dict(channel_kwargs)
        self.channel: Any = None
        #: commands applied over the replica's lifetime (a recovering service:
        #: the slot sequence applied, checkpointed slots included)
        self.applied_seq = 0
        self._digest_cache: Tuple[int, bytes] = (-1, b"")
        if self._auto_open_channel:
            self._open_channel()

    def _open_channel(self, resume: ChannelResume = ChannelResume()):
        """Create the (possibly resumed) channel and hook up delivery."""
        pid = self.membership.channel_pid(self.pid)
        make = (
            self.party.secure_atomic_channel if self.secure
            else self.party.atomic_channel
        )
        self.channel = make(pid, resume=resume, **self._channel_kwargs)
        self.channel.on_output = self._on_command
        return self.channel

    # -- client side --------------------------------------------------------------

    def submit(self, command: bytes, epoch: Optional[int] = None) -> None:
        """Broadcast a state update; it executes once totally ordered.

        Raises :class:`~repro.common.errors.ServiceNotOpen` if the channel
        is deferred and not yet opened, and
        :class:`~repro.common.errors.ChannelCongested` when a bounded
        channel (``max_pending=...``) has a full send buffer — the latter
        is retryable: check ``can_submit()`` first or retry after
        deliveries drain.

        ``epoch`` optionally pins the submission to a membership epoch:
        if the replica has since reconfigured, the command is refused
        with :class:`~repro.common.errors.EpochMismatch` instead of being
        silently ordered under a group the caller did not intend.  Between
        an epoch barrier and the cutover every submission is refused with
        the retryable :class:`~repro.common.errors.ReconfigInProgress`.
        """
        if self.membership.reconfiguring:
            raise ReconfigInProgress(
                f"service {self.pid!r} is between membership epochs; "
                "retry after the transition completes"
            )
        if epoch is not None and epoch != self.membership_epoch:
            raise EpochMismatch(
                f"submit pinned to epoch {epoch} but service {self.pid!r} "
                f"is at membership epoch {self.membership_epoch}"
            )
        if self.channel is None:
            raise ServiceNotOpen(
                f"service {self.pid!r} has no open channel yet: "
                "call start() or recover() before submit()"
            )
        self.channel.send(command)

    def can_submit(self) -> bool:
        """Whether ``submit`` would be accepted right now (channel open
        and, for bounded channels, send buffer not full)."""
        return self.channel is not None and self.channel.can_send()

    def queue_depth(self) -> int:
        """Commands accepted but not yet ordered (the channel's submit
        backlog) — the quantity the batching channel coalesces into
        agreement rounds.  Zero with no open channel."""
        return 0 if self.channel is None else self.channel.pending()

    def close(self) -> None:
        if self.channel is None:
            raise ServiceNotOpen(
                f"service {self.pid!r} has no open channel yet: "
                "nothing to close (call start() or recover() first)"
            )
        self.channel.close()

    # -- replica side ---------------------------------------------------------------

    def _on_command(self, origin: int, seq: int, command: bytes) -> None:
        self.state.apply(command)
        self.applied_seq += 1

    # -- inspection ----------------------------------------------------------------------

    @property
    def membership_epoch(self) -> int:
        """The current membership epoch (0 = as dealt)."""
        return self.membership.epoch

    def membership_info(self) -> Tuple[int, bytes]:
        """``(epoch, roster-digest-prefix)`` advertised in client replies."""
        return self.membership.info()

    def state_digest(self) -> bytes:
        return self.state.digest()

    def last_state_digest(self) -> bytes:
        """``state_digest()`` cached per applied command count.

        Recovery checkpoints and replica-equality tests hash the state
        after every K commands; the cache makes repeated probing between
        applications free.
        """
        count = self.applied_seq
        if self._digest_cache[0] != count:
            self._digest_cache = (count, self.state.digest())
        return self._digest_cache[1]
