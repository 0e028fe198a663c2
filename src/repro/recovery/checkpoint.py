"""Threshold-certified checkpoints.

Every ``K`` delivered slots each replica signs the statement
``(pid, seq, digest)`` where ``digest`` hashes the *checkpoint package* —
the state snapshot together with the channel bookkeeping (delivered keys
as per-origin runs, close origins, next round) needed to resume delivery
after the covered prefix; its size does not grow with the history.
Because the package is a pure function of the slot sequence, honest
replicas produce byte-identical packages and their shares combine.

The certificate is a ``k = t + 1`` multi-signature over the group's
per-party RSA keys (``crypto/threshold_sig.py``).  ``t + 1`` shares mean
at least one *honest* replica attests the digest, so a recovering replica
can accept the package from any single peer once the certificate
verifies — a Byzantine sender cannot forge a certificate for a corrupted
snapshot.  (This piggybacks on the dealt per-party keys rather than a
separately dealt Shoup instance, so it works for both ``sig_mode``
deals.)

A certified checkpoint is stored as the first record of the durable
delivery log (``repro.recovery.wal``), not in a file of its own.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError, ReproError
from repro.common.runs import Runs
from repro.crypto.threshold_sig import MultiSignatureScheme, ThresholdSigner
from repro.recovery.history import History, Members

CHECKPOINT_DOMAIN = "sintra.recovery.checkpoint"


class CheckpointError(ReproError):
    """A checkpoint package or certificate is malformed or invalid."""


def checkpoint_statement(pid: str, seq: int, package_digest: bytes) -> bytes:
    """The byte string every replica threshold-signs at a checkpoint."""
    return encode(("recovery-ckpt", pid, seq, package_digest))


def checkpoint_scheme(crypto) -> MultiSignatureScheme:
    """The group's ``t + 1``-of-``n`` certificate scheme.

    Built over the dealt per-party RSA verification keys, which every
    ``PartyCrypto`` already holds — no extra dealing step.
    """
    return MultiSignatureScheme(
        crypto.n, crypto.t + 1, crypto.t, crypto.party_public_keys,
        CHECKPOINT_DOMAIN,
    )


def checkpoint_signer(
    crypto, scheme: Optional[MultiSignatureScheme] = None
) -> ThresholdSigner:
    """This party's share signer, bound to its ordinary RSA keypair."""
    scheme = scheme if scheme is not None else checkpoint_scheme(crypto)
    return scheme.signer(crypto.index0 + 1, crypto.rsa)


# -- the checkpoint package ---------------------------------------------------------


def make_package(snapshot: bytes, history: History) -> bytes:
    """Canonical encoding of a snapshot and the history it stands at.

    Deterministic in the slot sequence alone (a set of keys has one
    canonical run list, the close origins are sorted), so all honest
    replicas produce identical bytes and their shares combine.  Without a
    roster (a static group) it is the 4-tuple ``(snapshot, delivered,
    closes, round)`` with ``delivered = [(origin, lo, hi), ...]``; a
    membership-aware service appends ``(epoch, roster)`` from epoch 0 on.
    """
    base = (
        snapshot,
        history.delivered.canonical(),
        sorted(int(o) for o in history.closes),
        int(history.round),
    )
    if history.roster is None:
        if history.epoch != 0:
            raise CheckpointError("an epoch > 0 package must carry its roster")
        return encode(base)
    return encode(base + (int(history.epoch), list(history.roster)))


def parse_package(package: bytes) -> Tuple[bytes, History]:
    """Decode and shape-check a checkpoint package from an untrusted peer.

    Returns ``(snapshot, history)``; a 4-tuple package parses as epoch 0
    with ``roster = None``.  ``t + 1`` replicas sign the digest of these
    bytes, so a set of delivered keys has exactly one accepted encoding
    (:meth:`Runs.parse`), checked run by run, never key by key.
    """
    try:
        parsed = decode(package)
    except EncodingError as exc:
        raise CheckpointError("undecodable checkpoint package") from exc
    if not (isinstance(parsed, tuple) and len(parsed) in (4, 6)):
        raise CheckpointError("checkpoint package must be a 4- or 6-tuple")
    snapshot, delivered, closes, base_round = parsed[:4]
    if not isinstance(snapshot, bytes):
        raise CheckpointError("package snapshot must be bytes")
    if not isinstance(delivered, list) or not isinstance(closes, list):
        raise CheckpointError("package bookkeeping must be lists")
    try:
        delivered = Runs.parse(delivered)
    except ValueError as exc:
        raise CheckpointError(f"package delivered keys: {exc}") from exc
    for origin in closes:
        if not isinstance(origin, int):
            raise CheckpointError("package close origin malformed")
    if not isinstance(base_round, int) or base_round < 1:
        raise CheckpointError("package base round malformed")
    epoch = 0
    roster: Members = None
    if len(parsed) == 6:
        epoch, raw_roster = parsed[4], parsed[5]
        if not isinstance(epoch, int) or epoch < 0:
            raise CheckpointError("package epoch malformed")
        if not isinstance(raw_roster, list):
            raise CheckpointError("package roster must be a list")
        for member in raw_roster:
            if member is not None and not isinstance(member, str):
                raise CheckpointError("package roster member malformed")
        roster = tuple(raw_roster)
    history = History(delivered, frozenset(closes), base_round, epoch, roster)
    return snapshot, history


@dataclass(frozen=True)
class Checkpoint:
    """A certified checkpoint: sequence, package, group certificate."""

    seq: int
    package: bytes
    signature: bytes

    @property
    def digest(self) -> bytes:
        return hashlib.sha256(self.package).digest()

    def statement(self, pid: str) -> bytes:
        return checkpoint_statement(pid, self.seq, self.digest)

    def verify(self, scheme: MultiSignatureScheme, pid: str) -> bool:
        """Does the group certificate cover this (pid, seq, package)?"""
        return scheme.verify(self.statement(pid), self.signature)
