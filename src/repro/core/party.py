"""A SINTRA server: protocol factory bound to one party's context.

``Party`` is the convenience entry point mirroring the paper's class
hierarchy (Fig. 2): it creates correctly-wired instances of every protocol
for this party.  All parties of a group must create matching instances
(same constructor, same ``pid``) for a protocol to run — protocol
identifiers are the rendezvous mechanism, exactly as in the paper.
"""

from __future__ import annotations

from typing import Optional

from repro.core.agreement import ArrayAgreement, BinaryAgreement, ValidatedAgreement
from repro.core.agreement.binary import BinaryValidator
from repro.core.agreement.multivalued import ORDER_RANDOM, ArrayValidator
from repro.core.broadcast import (
    ConsistentBroadcast,
    ReliableBroadcast,
    VerifiableConsistentBroadcast,
)
from repro.core.channel import (
    AtomicChannel,
    ConsistentChannel,
    ReliableChannel,
    SecureAtomicChannel,
)
from repro.core.protocol import Context


class Party:
    """Factory for protocol instances on one server."""

    def __init__(self, ctx: Context):
        self.ctx = ctx

    @property
    def id(self) -> int:
        return self.ctx.node_id

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def t(self) -> int:
        return self.ctx.t

    @property
    def obs(self):
        """The runtime's observability recorder (no-op unless enabled).

        Every protocol this party creates records into it; applications
        can add their own counters/spans under an ``app.*`` prefix.
        """
        return self.ctx.obs

    # -- broadcast primitives ---------------------------------------------------

    def reliable_broadcast(self, basepid: str, sender: int) -> ReliableBroadcast:
        return ReliableBroadcast(self.ctx, basepid, sender)

    def consistent_broadcast(self, basepid: str, sender: int) -> ConsistentBroadcast:
        return ConsistentBroadcast(self.ctx, basepid, sender)

    def verifiable_consistent_broadcast(
        self, basepid: str, sender: int
    ) -> VerifiableConsistentBroadcast:
        return VerifiableConsistentBroadcast(self.ctx, basepid, sender)

    # -- agreement ------------------------------------------------------------------

    def binary_agreement(self, pid: str) -> BinaryAgreement:
        return BinaryAgreement(self.ctx, pid)

    def validated_agreement(
        self,
        pid: str,
        validator: BinaryValidator,
        bias: Optional[int] = None,
    ) -> ValidatedAgreement:
        return ValidatedAgreement(self.ctx, pid, validator, bias=bias)

    def array_agreement(
        self,
        pid: str,
        validator: Optional[ArrayValidator] = None,
        order: str = ORDER_RANDOM,
    ) -> ArrayAgreement:
        return ArrayAgreement(self.ctx, pid, validator=validator, order=order)

    # -- channels -----------------------------------------------------------------------

    def atomic_channel(self, pid: str, **kwargs) -> AtomicChannel:
        return AtomicChannel(self.ctx, pid, **kwargs)

    def secure_atomic_channel(self, pid: str, **kwargs) -> SecureAtomicChannel:
        return SecureAtomicChannel(self.ctx, pid, **kwargs)

    def reliable_channel(self, pid: str) -> ReliableChannel:
        return ReliableChannel(self.ctx, pid)

    def consistent_channel(self, pid: str) -> ConsistentChannel:
        return ConsistentChannel(self.ctx, pid)


def make_parties(runtime) -> "list[Party]":
    """One :class:`Party` per context of a runtime."""
    return [Party(ctx) for ctx in runtime.contexts]
