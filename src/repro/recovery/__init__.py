"""Crash recovery for replicated services (beyond the paper).

SINTRA's model (DSN 2002) is a static group: a server that crashes is one
of the ``t`` tolerated faults forever.  For a long-lived deployment that is
not enough — this package lets a replica whose process state was fully
destroyed rejoin the group:

* ``wal`` — an append-only, CRC-framed durable log of every delivered
  slot, written at the channel's delivery point (write-ahead of
  application) with a configurable fsync policy;
* ``checkpoint`` — every ``K`` delivered slots the replicas threshold-sign
  the tuple (pid, seq, state digest); ``t + 1`` shares assemble into a
  checkpoint certificate that verifies under the group's public keys, so a
  recovering replica needs to trust no individual peer.  A certified
  checkpoint lives in the log and drops the prefix it covers from memory;
  the file is rewritten only when the covered bytes pay for it;
* ``service`` — ``RecoverableService``: a ``ReplicatedService`` wired to
  the log and the checkpoint protocol, with ``recover()`` — fetch the
  newest certificate + snapshot from peers, verify, replay the suffix, and
  re-enter the live channel at the right round.
"""

from repro.recovery.checkpoint import (
    Checkpoint,
    checkpoint_scheme,
    checkpoint_signer,
    checkpoint_statement,
)
from repro.recovery.service import CheckpointExchange, RecoverableService
from repro.recovery.wal import (
    FSYNC_ALWAYS,
    FSYNC_BATCH,
    FSYNC_NEVER,
    DeliveryLog,
)

__all__ = [
    "Checkpoint",
    "CheckpointExchange",
    "DeliveryLog",
    "FSYNC_ALWAYS",
    "FSYNC_BATCH",
    "FSYNC_NEVER",
    "RecoverableService",
    "checkpoint_scheme",
    "checkpoint_signer",
    "checkpoint_statement",
]
