"""Epoch-based group reconfiguration over the recovery subsystem.

:class:`Membership` is the component a ``RecoverableService(...,
membership=Membership(keychain))`` *has* when its group can change while
it runs (the paper's static group is the trivial implementation of the
same interface, :class:`~repro.app.replication.StaticGroup`).  Roster,
epoch key swap, durable epoch floor, barrier predicate, listeners and
the reconfiguration verbs live here; the walk over delivered slots does
not — :meth:`Membership.step` is the rule ``recovery.history.fold`` takes.
A change is an ordinary ordered request (``reconfigure()`` wraps a
:class:`~repro.membership.roster.MembershipChange` into a tagged payload
and submits it); the slot at which the first admissible change for the
current epoch commits is the **epoch barrier**:

1. the atomic channel recognizes the barrier record at delivery (a pure
   predicate every honest replica evaluates at the same slot), stops
   delivering mid-batch, aborts in-flight agreement rounds, and freezes;
2. when the barrier command reaches the application (the same deferred
   FIFO every command uses, so everything ordered before it has been
   applied), the replica derives the epoch ``e + 1`` key material from
   the :class:`~repro.membership.epoch.EpochKeychain` — rotated coin /
   TDH2 / Shoup shares, stable group keys — and swaps it into its
   crypto context;
3. the frozen channel's undelivered records are harvested and the
   replica opens the successor channel under the epoch-tagged protocol
   id (``<pid>@e<epoch>``), resuming at round 1 with the carried-over
   queue, so no accepted request is dropped or reordered;
4. the barrier slot is checkpointed immediately (``force=True``), giving
   a joining successor a certified package to onboard from without
   waiting out the checkpoint interval.

Cross-epoch messages are doubly rejected: the old protocol id is
tombstoned at the router (frames are dropped), and every signed
statement embeds the epoch-tagged pid — plus, in Shoup mode and for
coin/TDH2 shares, the verification keys themselves rotated, so a share
from epoch ``e`` is cryptographically invalid in ``e + 1`` (the mobile-
adversary argument; see docs/MEMBERSHIP.md).

Epoch 0 deliberately uses the *untagged* pid and the dealt epoch-0
material, so a group that never reconfigures is wire-compatible with a
static one.  Its checkpoint packages are not: a membership-aware replica
reads the static 4-tuple (as "the initial roster") but signs the 6-tuple
from epoch 0 on, so the two kinds cannot share a certificate.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Callable, List, Optional, Tuple

from repro.common.errors import ConfigError, EpochMismatch
from repro.membership.epoch import EpochKeychain
from repro.membership.roster import (
    MembershipChange,
    Roster,
    make_reconfig_command,
    parse_reconfig_command,
)
from repro.recovery.history import History, Seats
from repro.recovery.service import RecoverableService

EPOCH_STATE_FILE = "epoch.json"


class Membership:
    """The group of one replica of a service that can reconfigure.  One
    instance serves one service: the constructor it is passed to binds it."""

    def __init__(
        self,
        keychain: EpochKeychain,
        roster: Optional[Roster] = None,
        min_epoch: int = 0,
    ):
        self.keychain = keychain
        self.initial = self.roster = roster or Roster.initial(keychain.group.n)
        if self.initial.epoch != 0:
            raise ConfigError("the configured roster must be the epoch-0 roster")
        #: the durable epoch floor: state transfer refuses to adopt any
        #: history that ends below it, so a wiped-and-restarted replica
        #: cannot be rolled back behind a reconfiguration it once saw.
        self.min_epoch = int(min_epoch)
        self.reconfiguring = False
        #: ``callback(event, value)`` where event is ``"barrier"`` (value:
        #: the frozen channel's round) or ``"epoch"`` (value: the epoch
        #: just entered).  The liveness watchdog suspends across the
        #: barrier window through this hook; the recovery orchestrator
        #: tracks commit progress through it.
        self.listeners: List[Callable[[str, int], None]] = []
        self._e2e_open = False
        self._crypto_epoch = 0

    def bind(self, service: RecoverableService) -> "Membership":
        """Attach to ``service`` and read its durable epoch floor."""
        self.service = service
        self.party = service.party
        self.obs = service.obs
        self._scope = (service.party.id, f"{service.pid}:mem")  # obs phase scope
        self._state_path = os.path.join(service.directory, EPOCH_STATE_FILE)
        try:
            with open(self._state_path, "r", encoding="utf-8") as fh:
                stored = int(json.load(fh)["epoch"])
        except (OSError, ValueError, KeyError, TypeError):
            stored = 0
        self.min_epoch = max(self.min_epoch, stored)
        return self

    # -- what the service asks ---------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self.roster.epoch

    @property
    def members(self) -> Seats:
        return self.roster.members

    def info(self) -> Tuple[int, bytes]:
        return (self.roster.epoch, self.roster.short_digest())

    def channel_pid(self, pid: str) -> str:
        """Epoch-tagged beyond epoch 0, so frames — and the statements
        signed over them, which embed the pid — from a superseded epoch
        are rejected outright."""
        return pid if self.epoch == 0 else f"{pid}@e{self.epoch}"

    def step(
        self, epoch: int, members: Seats, payload: bytes
    ) -> Optional[Tuple[int, Seats]]:
        """The membership rule (pure; see ``repro.recovery.history.fold``):
        ``None`` unless ``payload`` is a reconfiguration command, else the
        roster after it — stepped if the command is for ``epoch`` and
        admissible, unchanged if it is stale or inadmissible."""
        parsed = parse_reconfig_command(payload)
        if parsed is None:
            return None
        cmd_epoch, change = parsed
        if cmd_epoch == epoch:
            try:
                stepped = Roster(epoch, members).apply(change, self.keychain.group.t)
                return (stepped.epoch, stepped.members)
            except ConfigError:
                pass
        return (epoch, members)

    def admit(self, base: History) -> History:
        """A package without a roster (a static service's 4-tuple) means
        the initial roster."""
        if base.roster is None:
            if base.epoch != 0:
                raise EpochMismatch(
                    f"epoch {base.epoch} checkpoint package carries no roster"
                )
            return replace(base, roster=self.initial.members)
        if len(base.roster) != self.keychain.group.n:
            raise EpochMismatch("checkpoint roster has the wrong slot count")
        return base

    def enter(self, epoch: int, members: Seats) -> None:
        """Make ``(epoch, members)`` the roster in force and swap the
        epoch's key material into the crypto context."""
        if epoch < self.min_epoch:
            # Local durable state that ends before the floor (e.g. a wiped
            # successor booting locally): the replica must recover() from
            # peers instead of going live stale.
            raise EpochMismatch(
                f"local state ends at membership epoch {epoch}, below this "
                f"replica's floor {self.min_epoch}; recover() from the group "
                "instead of start()"
            )
        self.roster = Roster(epoch, members)
        if self.obs.enabled:
            self.obs.set_gauge("membership.epoch", float(epoch))
        if epoch == self._crypto_epoch:
            return
        started = self.party.ctx.now()
        self.party.ctx.crypto = self.keychain.party_crypto(
            epoch, self.roster, self.party.id
        )
        self._crypto_epoch = epoch
        if self.obs.enabled:
            n = self.keychain.group.n
            self.obs.count("membership.reshare.epochs")
            self.obs.count("membership.reshare.coin_shares", n)
            self.obs.count("membership.reshare.enc_shares", n)
            if self.keychain.group.sig_mode == "shoup":
                self.obs.count("membership.reshare.sig_shares", 2 * n)
            self.obs.observe(
                "membership.reshare.seconds", self.party.ctx.now() - started
            )

    def is_barrier(self, data: bytes) -> bool:
        """The channel's barrier predicate: does ``data`` end the epoch?"""
        stepped = self.step(self.epoch, self.members, data)
        return stepped is not None and stepped[0] > self.epoch

    def on_barrier(self, round_: int) -> None:
        # Delivery-time: the channel just froze.  The transition itself
        # runs when the barrier command reaches the service through the
        # ordered apply FIFO; until then new submissions are refused with
        # the typed retryable error.
        self.reconfiguring = True
        if self.obs.enabled:
            self.obs.count("membership.barrier")
        for callback in self.listeners:
            callback("barrier", round_)

    def advance(self, epoch: int, members: Seats) -> bool:
        """A reconfiguration command reached the application: a no-op on
        every replica if ``epoch`` is unchanged (stale or inadmissible),
        else the cutover — swap key material, carry the frozen channel's
        undelivered records into its successor.  True if the epoch moved."""
        if epoch == self.roster.epoch:
            if self.obs.enabled:
                self.obs.count("membership.reconfig.stale")
            return False
        service = self.service
        old_channel = service.channel
        resume = old_channel.harvest_resume()
        old_channel.abort()
        self.enter(epoch, members)
        self._save_epoch_state()
        service._open_channel(resume)
        # Late own-submissions still racing toward the old object are
        # forwarded so their sequence numbers allocate on the live
        # channel (see AtomicChannel._enqueue_own).
        old_channel.successor = service.channel
        self.reconfiguring = False
        if self.obs.enabled:
            self.obs.count("membership.reconfig.committed")
            if self._e2e_open:
                self._e2e_open = False
                self.obs.phase_end(self._scope)
        for callback in self.listeners:
            callback("epoch", epoch)
        return True

    def _save_epoch_state(self) -> None:
        tmp = self._state_path + ".tmp"
        blob = {"epoch": self.roster.epoch, "members": list(self.roster.members)}
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._state_path)
        self.min_epoch = max(self.min_epoch, self.roster.epoch)

    # -- the reconfiguration verbs -----------------------------------------------------

    def reconfigure(self, change: MembershipChange) -> int:
        """Submit ``change`` for the current epoch through the total
        order; returns the epoch the change creates once it commits.

        Raises :class:`~repro.common.errors.ConfigError` if the change is
        inadmissible against the current roster, and the usual submit
        errors (``ReconfigInProgress``, ``ChannelCongested``,
        ``ServiceNotOpen``).  Any replica may submit; the first
        admissible command to commit wins and the rest become no-ops.
        """
        target = self.roster.apply(change, self.keychain.group.t)
        self.service.submit(make_reconfig_command(self.roster.epoch, change))
        if self.obs.enabled:
            self.obs.count("membership.reconfig.requested")
            if not self._e2e_open:
                self._e2e_open = True
                self.obs.phase(self._scope, "membership.reconfig.e2e")
        return target.epoch

    def refresh_shares(self) -> int:
        """Proactive refresh: rotate every share without changing the
        roster (the mobile-adversary countermeasure)."""
        return self.reconfigure(MembershipChange("refresh"))

    def drain_and_replace(self, slot: int, member: str) -> int:
        """Evict the replica in ``slot`` and seat ``member`` there, in one
        epoch step.  Every share rotates at the barrier, so the evicted
        replica's material is stale the moment the change commits — this
        is the programmatic surgery primitive the recovery orchestrator
        (:mod:`repro.heal`) drives; the evicted replica must already be
        fenced (shut down) by the caller."""
        return self.reconfigure(MembershipChange("replace", slot=slot, member=member))

    def retire_slot(self, slot: int) -> int:
        """Evict the replica in ``slot`` leaving the seat vacant (at most
        ``t`` vacancies).  Used when no spare replica is available — the
        group degrades but stale shares still rotate out."""
        return self.reconfigure(MembershipChange("retire", slot=slot))


__all__ = ["Membership", "EPOCH_STATE_FILE"]
