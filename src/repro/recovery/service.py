"""A replicated service that survives full destruction of its process.

``RecoverableService`` extends ``ReplicatedService`` with the three
recovery mechanisms of this package:

* every delivered slot is appended to the :class:`~repro.recovery.wal.
  DeliveryLog` at the channel's delivery point (write-ahead of
  application), and own-send sequence allocations are persisted before the
  signed record can leave the process;
* at every slot sequence that is a multiple of ``K`` (``checkpoint_
  interval``) the replica builds the deterministic checkpoint package,
  signs the statement ``(pid, seq, sha256(package))`` and exchanges shares
  with its peers; ``t + 1`` shares combine into a certificate, which the
  log installs in memory (it drops the covered slots and writes nothing
  until a rewrite pays for itself);
* ``recover()`` — for a replica whose memory is gone: pull
  ``(certificate, package, log tail)`` from the peers, adopt a response
  once its certificate verifies under the group key **and** ``t + 1``
  peers report byte-identical transfer state (the uncertified tail is
  attested by the quorum, the certified prefix by the certificate), then
  install it — the ``_install(checkpoint, tail)`` that ``start()`` runs
  on local durable state: restore the snapshot, extend the package's
  history over the tail with the one slot walk
  (:func:`~repro.recovery.history.fold`), apply the commands it returns,
  and re-enter the live channel through a ``ChannelResume``.

Who is in the group is ``self.membership``'s business (the static group,
or a ``repro.membership.Membership``): it supplies the rule ``fold``
steps with, so builds, replay, transfer and the live path agree.

Trust argument: the certificate needs ``t + 1`` of ``n`` signatures, so at
least one honest replica attests the package digest — a single Byzantine
peer cannot serve a poisoned snapshot that verifies.  The tail beyond the
last certificate carries no certificate yet, which is why adoption
additionally waits for ``t + 1`` identical responses (at least one of
which is honest).  Liveness of the pull is retried on a timer; catch-up
completes once the group is quiescent enough for ``t + 1`` peers to agree
on the transfer state (see docs/RECOVERY.md for the sharper statement).
"""

from __future__ import annotations

import hashlib
import os
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.app.replication import ReplicatedService, StateMachine
from repro.common.encoding import encode
from repro.common.errors import EpochMismatch, ReproError
from repro.core.channel.atomic import (
    KIND_APP,
    KIND_CIPHER,
    KIND_CLOSE,
    ChannelResume,
)
from repro.core.party import Party
from repro.core.protocol import Protocol
from repro.core.schema import Range, Seq
from repro.crypto.threshold_sig import combine_optimistically
from repro.recovery.checkpoint import (
    Checkpoint,
    CheckpointError,
    checkpoint_scheme,
    checkpoint_signer,
    checkpoint_statement,
    make_package,
    parse_package,
)
from repro.recovery.history import History, fold
from repro.recovery.wal import FSYNC_BATCH, DeliveryLog, SlotTuple

MSG_SHARE = "ckpt-share"
MSG_PULL = "pull"
MSG_STATE = "state"

#: at most this many not-yet-reached checkpoint sequences keep buffered
#: foreign shares (a Byzantine flooder cannot grow the buffer unboundedly)
MAX_FOREIGN_SEQS = 8

#: one transferred slot: (index, origin, oseq, kind, data, round)
SLOT = (int, int, Range(0), {KIND_APP, KIND_CLOSE, KIND_CIPHER}, bytes, Range(1))


class RecoveryError(ReproError):
    """A recovery-protocol precondition or invariant failed."""


class CheckpointExchange(Protocol):
    """Wire endpoint for checkpoint shares and state-transfer pulls.

    A thin :class:`Protocol` so the recovery traffic has its own protocol
    id (``<service pid>:rec``) and therefore its own router buffering —
    in particular, shares sent while a peer is down are buffered/retried
    by the transport like any other protocol message.
    """

    MESSAGES = {
        MSG_SHARE: (Range(1), bytes),  # (seq, share)
        MSG_PULL: (int,),  # (request id,)
        MSG_STATE: (int, Range(0), bytes, bytes, Seq(SLOT)),  # see _serve_payload
    }

    def __init__(self, ctx, pid: str, service: "RecoverableService"):
        super().__init__(ctx, pid)
        self.service = service

    def on_message(self, sender: int, mtype: str, payload: Any) -> None:
        if mtype == MSG_SHARE:
            self.service._on_ckpt_share(sender, payload)
        elif mtype == MSG_PULL:
            self.service._on_pull(sender, payload)
        else:
            self.service._on_state(sender, payload)


class RecoverableService(ReplicatedService):
    """A ``ReplicatedService`` with a durable log, certified checkpoints,
    and peer state transfer.

    Lifecycle: construct, then either ``start()`` (boot from local durable
    state — a fresh replica or a cold-started group) or ``recover()``
    (rejoin a *running* group after losing memory; returns a future that
    resolves once the replica is live again).  The channel does not exist
    until one of the two has run.
    """

    _auto_open_channel = False

    def __init__(
        self,
        party: Party,
        pid: str,
        state_machine: StateMachine,
        directory: str,
        checkpoint_interval: int = 16,
        fsync: str = FSYNC_BATCH,
        pull_retry_s: float = 0.5,
        secure: bool = False,
        membership: Any = None,
        **channel_kwargs: Any,
    ):
        if secure:
            raise RecoveryError(
                "recovery supports the plain atomic channel only: the durable "
                "log stores delivered records, and secure-causal ciphertexts "
                "cannot be re-decrypted from disk without a live group"
            )
        if checkpoint_interval < 1:
            raise RecoveryError("checkpoint interval must be >= 1")
        super().__init__(party, pid, state_machine, secure=False, **channel_kwargs)
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.interval = checkpoint_interval
        self.pull_retry_s = pull_retry_s
        self.obs = party.obs
        self.wal = DeliveryLog(os.path.join(directory, "wal.log"), fsync=fsync)
        self.scheme = checkpoint_scheme(party.ctx.crypto)
        self.signer = checkpoint_signer(party.ctx.crypto, self.scheme)
        self.verifier = party.ctx.crypto.verifier
        #: sequence of the newest certified checkpoint this replica holds
        self.last_certified = 0
        self._last_proposed = 0
        if membership is not None:  # else the class's StaticGroup
            self.membership = membership.bind(self)
        self._base = History()  #: what the newest certificate covers
        #: seq -> {"package", "history", "statement", "shares": {index: share}}
        self._pending: Dict[int, Dict[str, Any]] = {}
        #: shares for checkpoints this replica has not reached yet
        self._foreign: Dict[int, Dict[int, bytes]] = {}
        #: delivered slot indices awaiting application (FIFO: the channel
        #: defers apply via ctx.effect, in delivery order)
        self._apply_fifo: Deque[int] = deque()
        self.recovered = False
        self._recover_future = None
        self._pull_req = 0
        self._responses: Dict[int, Dict[str, Any]] = {}
        self._retry_timer = None
        self.exchange = CheckpointExchange(party.ctx, f"{pid}:rec", self)

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> "RecoverableService":
        """Boot from local durable state only (no peers consulted).

        Correct for a fresh replica (empty directory) and for restarting a
        *quiescent or cold-started* group, where the local log is a prefix
        of the group's history and no round was mid-flight at the crash.
        A replica rejoining a running group must use :meth:`recover`.
        """
        if self.channel is not None:
            raise RecoveryError("service already started")
        ckpt = self.wal.checkpoint
        base = 0
        if ckpt is not None:
            if not ckpt.verify(self.scheme, self.pid):
                raise RecoveryError("stored checkpoint certificate does not verify")
            base = ckpt.seq
        if self.wal.base > base:
            # A log of the old two-file layout: its certificate is elsewhere.
            raise RecoveryError(
                "delivery log is ahead of the stored checkpoint "
                f"(log base {self.wal.base}, checkpoint seq {base})"
            )
        self.wal.check_contiguous()
        self._open_channel(self._install(ckpt, self.wal.tail()))
        return self

    def recover(self):
        """Rejoin a running group after total loss of in-memory state.

        Broadcasts a state pull, retried every ``pull_retry_s``, and
        adopts the peers' transfer state once a certificate-verified
        response is confirmed by ``t + 1`` identical fingerprints.
        Returns a runtime future resolving to a stats dict once the
        replica is live on the channel again.
        """
        if self.channel is not None:
            raise RecoveryError("cannot recover: channel already open")
        if self._recover_future is not None:
            return self._recover_future
        self._recover_future = self.party.ctx.new_future()
        if self.obs.enabled:
            self.obs.count("recovery.attempts")
            self.obs.phase(self.exchange.obs_scope, "recovery.catchup")
        self.party.ctx.api(self._send_pull)
        return self._recover_future

    def release(self) -> None:
        """Flush and close the durable files (clean shutdown only)."""
        self.wal.close()

    def shutdown(self) -> None:
        """Retire this replica process: abort the channel, halt the
        transfer exchange, close durable files."""
        if self.channel is not None:
            self.channel.abort()
        self.exchange.halt()
        self.wal.close()

    # -- channel hooks -------------------------------------------------------------

    def _open_channel(self, resume: ChannelResume = ChannelResume()):
        channel = super()._open_channel(resume)
        channel.on_slot = self._on_slot
        channel.on_own_enqueue = self._on_own_enqueue
        channel.on_sync = self.wal.sync
        channel.barrier_predicate = self.membership.is_barrier
        channel.on_barrier = self.membership.on_barrier
        return channel

    def _on_slot(
        self, index: int, origin: int, oseq: int, kind: int, data: bytes, round_: int
    ) -> None:
        self.wal.append_slot(index, origin, oseq, kind, data, round_)
        if self.obs.enabled:
            self.obs.count("recovery.wal.slots")
            self.obs.count("recovery.wal.bytes", len(data))
        if kind != KIND_CLOSE:
            self._apply_fifo.append(index)

    def _on_own_enqueue(self, next_seq: int) -> None:
        self.wal.append_sent(next_seq)

    def _on_command(self, origin: int, seq: int, command: bytes) -> None:
        index = self._apply_fifo.popleft() if self._apply_fifo else None
        group = self.membership
        stepped = group.step(group.epoch, group.members, command)
        barrier = False
        if stepped is None:
            self.state.apply(command)
            if self.obs.enabled and index is not None:
                self.obs.count("recovery.applied")
        else:
            # A reconfiguration command occupies its slot but never
            # reaches the state machine (the rule ``fold`` replays).
            barrier = group.advance(*stepped)
        if index is None:
            return  # a non-recoverable channel path delivered this
        self.applied_seq = index + 1  # the slot sequence, not a command count
        self._maybe_checkpoint(index + 1, force=barrier)

    # -- checkpointing -------------------------------------------------------------

    def _maybe_checkpoint(self, seq: int, force: bool = False) -> None:
        """Propose a checkpoint when the applied slot sequence crosses K.

        The boundary test is on the *absolute* slot sequence (``seq % K``),
        so every honest replica proposes at the same sequences regardless
        of when it last restarted.  A boundary landing on a close-request
        slot is skipped by everyone identically (close slots never reach
        application).

        ``force`` skips the boundary test (still deduplicated against
        already-proposed sequences): epoch barriers checkpoint immediately
        so a joining successor can onboard at the barrier without waiting
        out the interval.  All honest replicas force at the same slot, so
        determinism is preserved.
        """
        if not force and seq % self.interval != 0:
            return
        if seq <= max(self.last_certified, self._last_proposed):
            return
        built = self._build_package(seq)
        if built is None:
            if self.obs.enabled:
                self.obs.count("recovery.checkpoint.skipped")
            return
        package, history = built
        self._last_proposed = seq
        statement = checkpoint_statement(
            self.pid, seq, hashlib.sha256(package).digest()
        )
        share = self.signer.sign_share(statement)
        self._pending[seq] = {
            "package": package,
            "history": history,
            "statement": statement,
            "shares": {self.party.id + 1: share},
        }
        if self.obs.enabled:
            self.obs.count("recovery.checkpoint.proposed")
        for index, buffered in self._foreign.pop(seq, {}).items():
            self._add_share(seq, index, buffered)
        # Application of commands runs as a deferred effect, outside the
        # node's message-handling context; route the broadcast through
        # api() so it executes as node work on every runtime.
        self.party.ctx.api(
            lambda: self.exchange.send_all(MSG_SHARE, (seq, share))
        )
        self._try_combine(seq)

    def _build_package(self, seq: int) -> Optional[Tuple[bytes, History]]:
        """The deterministic checkpoint package covering slots ``< seq``,
        with the history it encodes."""
        history, _ = fold(
            self._base,
            (slot for slot in self.wal.tail() if slot[0] < seq),
            self.membership.step,
        )
        if len(history.delivered) != seq:
            return None  # log inconsistent with the apply stream
        return make_package(self.state.snapshot(), history), history

    def _on_ckpt_share(self, sender: int, payload: Tuple[int, bytes]) -> None:
        seq, share = payload
        if seq <= self.last_certified:
            return
        if seq in self._pending:
            self._add_share(seq, sender + 1, share)
            self._try_combine(seq)
            return
        # Not at this boundary yet: buffer, bounded against floods.
        bucket = self._foreign.setdefault(seq, {})
        if sender + 1 not in bucket:
            bucket[sender + 1] = share
        while len(self._foreign) > MAX_FOREIGN_SEQS:
            del self._foreign[min(self._foreign)]

    def _add_share(self, seq: int, index: int, share: bytes) -> None:
        pending = self._pending.get(seq)
        if pending is None or index in pending["shares"]:
            return
        try:
            if self.scheme.share_index(share) != index:
                raise CheckpointError("share signed under a different index")
            if not self.verifier.sig_share_ok(self.scheme, pending["statement"], share):
                raise CheckpointError("share does not verify")
        except (ReproError, CheckpointError):
            # Either a corrupted share or an honest peer checkpointing a
            # different digest than ours — both just fail to contribute.
            if self.obs.enabled:
                self.obs.count("recovery.checkpoint.share_rejected")
            return
        pending["shares"][index] = share

    def _try_combine(self, seq: int) -> None:
        pending = self._pending.get(seq)
        if pending is None or len(pending["shares"]) < self.scheme.k:
            return
        signature = combine_optimistically(
            self.scheme, pending["statement"], pending["shares"], verifier=self.verifier
        )
        if signature is None:
            return
        self._install_checkpoint(
            Checkpoint(seq=seq, package=pending["package"], signature=signature),
            pending["history"],
        )

    def _install_checkpoint(self, ckpt: Checkpoint, history: History) -> None:
        """Install a certificate over a package built here in the log."""
        self.wal.install(ckpt)
        self._base = history
        self.last_certified = ckpt.seq
        for seq in [s for s in self._pending if s <= ckpt.seq]:
            del self._pending[seq]
        for seq in [s for s in self._foreign if s <= ckpt.seq]:
            del self._foreign[seq]
        if self.obs.enabled:
            self.obs.count("recovery.checkpoint.certified")
            self.obs.set_gauge("recovery.checkpoint.seq", ckpt.seq)

    # -- state transfer: serving side ----------------------------------------------

    def _on_pull(self, sender: int, payload: Tuple[int]) -> None:
        if self.channel is None:
            return  # recovering ourselves: nothing trustworthy to serve
        req_id = payload[0]
        response = self._serve_payload()
        self.exchange.unicast(sender, MSG_STATE, (req_id,) + response)
        if self.obs.enabled:
            _seq, _sig, package, tail = response
            self.obs.count("recovery.transfer.served")
            self.obs.count(
                "recovery.transfer.served_bytes",
                len(package) + sum(len(slot[4]) for slot in tail),
            )

    def _serve_payload(self) -> Tuple[int, bytes, bytes, List[SlotTuple]]:
        """(seq, cert, package, tail): the log's newest certified
        checkpoint and the slots it retains after it.

        Split out so Byzantine-behaviour tests can override what a
        malicious peer serves.
        """
        ckpt = self.wal.checkpoint
        if ckpt is None:
            return 0, b"", b"", self.wal.tail()
        return ckpt.seq, ckpt.signature, ckpt.package, self.wal.tail()

    # -- state transfer: recovering side ---------------------------------------------

    def _send_pull(self) -> None:
        if self.channel is not None or self._recover_future is None:
            return
        self._pull_req += 1
        self._responses = {}
        if self.obs.enabled:
            self.obs.count("recovery.transfer.pulls")
        self.exchange.send_all(MSG_PULL, (self._pull_req,))
        self._retry_timer = self.party.ctx.set_timer(
            self.pull_retry_s, self._send_pull
        )

    def _on_state(self, sender: int, payload: Tuple[Any, ...]) -> None:
        if self.channel is not None or self._recover_future is None:
            return
        req_id, seq, sig, package, tail = payload
        if req_id != self._pull_req:
            return  # response to a superseded pull
        try:
            response = self._validate_response(seq, sig, package, tail)
        except (CheckpointError, ReproError):
            if self.obs.enabled:
                self.obs.count("recovery.transfer.rejected")
            return
        self._responses[sender] = response
        # Adopt once t+1 peers (at least one honest) report identical
        # transfer state; the certificate already pins the prefix, the
        # quorum pins the uncertified tail.
        matching = [
            r for r in self._responses.values()
            if r["fingerprint"] == response["fingerprint"]
        ]
        if len(matching) >= self.party.t + 1:
            self._adopt(response)

    def _validate_response(
        self, seq: int, sig: bytes, package: bytes, tail: List[SlotTuple]
    ) -> Dict[str, Any]:
        slots = sorted(tail, key=lambda s: s[0])
        if [s[0] for s in slots] != list(range(seq, seq + len(slots))):
            raise CheckpointError("transfer tail is not contiguous from seq")
        ckpt: Optional[Checkpoint] = None
        if seq > 0:
            ckpt = Checkpoint(seq=seq, package=package, signature=sig)
            if not ckpt.verify(self.scheme, self.pid):
                raise CheckpointError("transfer certificate does not verify")
        elif package != b"" or sig != b"":
            raise CheckpointError("uncertified response carries a package")
        _snapshot, _base, history, _commands = self._replay(ckpt, slots)
        if len(history.delivered) != seq + len(slots):
            raise CheckpointError("transfer repeats a delivered key")
        if history.epoch < self.membership.min_epoch:
            # A mobile adversary must not be able to serve a stale but
            # genuinely certified pre-reconfiguration history.
            if self.obs.enabled:
                self.obs.count("membership.transfer.stale_epoch")
            raise EpochMismatch(
                f"transfer response ends at membership epoch {history.epoch}, "
                f"below this replica's floor {self.membership.min_epoch}"
            )
        return {
            "checkpoint": ckpt,
            "tail": slots,
            "fingerprint": hashlib.sha256(encode((seq, package, slots))).digest(),
        }

    def _adopt(self, response: Dict[str, Any]) -> None:
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None
        ckpt, tail = response["checkpoint"], response["tail"]
        resume = self._install(ckpt, tail)
        self.wal.reset(ckpt, tail, resume.next_seq)
        self._open_channel(resume)
        self.recovered = True
        if self.obs.enabled:
            self.obs.phase_end(self.exchange.obs_scope)  # recovery.catchup
            self.obs.count("recovery.transfer.adopted")
            self.obs.count("recovery.catchup.slots", len(tail))
            self.obs.set_gauge("recovery.resume_round", resume.round)
        future, self._recover_future = self._recover_future, None
        future.resolve({
            "seq": self.last_certified,
            "tail_slots": len(tail),
            "resume_round": resume.round,
            "applied_seq": self.applied_seq,
        })

    def _replay(
        self, ckpt: Optional[Checkpoint], tail: List[SlotTuple]
    ) -> Tuple[Optional[bytes], History, History, List[bytes]]:
        """``(snapshot, base, history, commands)`` of ``tail`` folded over
        ``ckpt`` (``None``: genesis); touches nothing."""
        snapshot: Optional[bytes] = None
        base = History()
        if ckpt is not None:
            snapshot, base = parse_package(ckpt.package)
            if len(base.delivered) != ckpt.seq:
                raise CheckpointError("checkpoint package is inconsistent")
        base = self.membership.admit(base)
        history, commands = fold(base, tail, self.membership.step)
        return snapshot, base, history, commands

    def _install(
        self, ckpt: Optional[Checkpoint], tail: List[SlotTuple]
    ) -> ChannelResume:
        """Make ``ckpt`` plus ``tail`` this replica's state and return
        where the channel continues; ``start()`` and ``recover()`` differ
        only in where the two arguments come from."""
        snapshot, base, history, commands = self._replay(ckpt, tail)
        self.membership.enter(history.epoch, history.roster)  # may refuse
        if snapshot is not None:
            self.state.restore(snapshot)
        for command in commands:
            self.state.apply(command)
        self._base = base
        self.last_certified = self._last_proposed = len(base.delivered)
        self.applied_seq = len(history.delivered)
        next_seq = max(
            self.wal.sent_next, history.delivered.next_seq(self.party.id)
        )
        return ChannelResume(
            history.round, history.delivered, tuple(history.closes), next_seq
        )
