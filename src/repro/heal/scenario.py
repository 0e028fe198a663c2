"""The closed-loop heal case: intrusion → detection → eviction → re-attack.

A :class:`~repro.testing.schedule.Scenario` (``--scenario heal``) that
:func:`~repro.testing.schedule.run_case` drives like any other, composing
the whole stack in one seeded, deterministic run:

1. an ``n``-replica reconfigurable group serves ordered traffic under
   the simulator and the case's fault plan; the case's adversaries run a
   real intrusion strategy from :mod:`repro.adversary.strategies`
   (``doublevote``, ``badshare``, ``silence``, ...);
2. the :class:`~repro.heal.orchestrator.HealOrchestrator` — wired to a
   report-mode watchdog, the equivocation/silence router tap, and the
   router error streams — must *autonomously* detect every intruder,
   fence it, drain-and-replace it with a spare via epoch reconfiguration
   and certified state transfer (no operator call anywhere in the run);
3. post-heal, the honest group and the onboarded successors must agree
   byte-for-byte on delivered state, and a renewed attack using an
   evicted replica's *pre-refresh* shares must be rejected: the epoch
   rotation made them cryptographically stale (checked directly against
   the new epoch's verifier).

The verdict is :class:`HealedInvariant`'s: diverging digests and an
accepted stale share are *safety* failures; an intruder not detected or
not replaced is a *liveness* failure whose dump is the orchestrator's.
"""

from __future__ import annotations

import itertools
import tempfile
from typing import Any, Dict, Generator, List, Optional, Set

from repro.adversary.context import AdversarialContext
from repro.adversary.watchdog import LivenessViolation, LivenessWatchdog
from repro.app.replication import StateMachine
from repro.common.errors import ReproError
from repro.core.party import Party, make_parties
from repro.crypto.dealer import GroupConfig
from repro.heal.orchestrator import HealOrchestrator
from repro.membership.epoch import EpochKeychain
from repro.membership.service import Membership
from repro.net.runtime import SimRuntime
from repro.recovery.service import RecoverableService
from repro.testing.invariants import Invariant, InvariantSuite
from repro.testing.schedule import CaseSetup, Scenario


class CounterMachine(StateMachine):
    """The scenario's replicated state machine: a counter over
    ``add:<k>`` / ``sub:<k>`` commands (deterministic, snapshotable)."""

    def __init__(self) -> None:
        self.value = 0
        self.applied = 0

    def apply(self, command: bytes) -> bytes:
        op, _, arg = command.partition(b":")
        delta = int(arg or b"0")
        if op == b"add":
            self.value += delta
        elif op == b"sub":
            self.value -= delta
        self.applied += 1
        return b"%d" % self.value

    def snapshot(self) -> bytes:
        return b"%d:%d" % (self.value, self.applied)

    def restore(self, blob: bytes) -> None:
        value, _, applied = blob.partition(b":")
        self.value = int(value)
        self.applied = int(applied or b"0")


def stale_share_rejected(
    keychain: EpochKeychain, roster: Any, epoch: int, victim: int
) -> bool:
    """Prove the evicted replica's epoch-0 coin share is useless now.

    The victim releases a share from its *dealt* (pre-refresh) material;
    it must verify under the epoch-0 coin and fail under the current
    epoch's — the mobile-adversary countermeasure, checked directly at
    the crypto layer (a renewed attack is rejected share by share).
    """
    name = b"heal-stale-probe"
    coin0 = keychain.group.parties[victim].coin
    raw = keychain.group.raw
    assert raw is not None
    share0 = int(raw["coin"]["shares"][victim])
    release = coin0.holder(victim + 1, share0).release(name)
    fresh = keychain.material(epoch, roster).coin
    return bool(coin0.verify_share(name, release)) and not bool(
        fresh.verify_share(name, release)
    )


class HealedInvariant(Invariant):
    """The acceptance checks of a closed-loop case, stated at its end.

    ``facts`` is what the scenario's process reported (see
    :meth:`HealScenario.setup`).
    """

    name = "healed"

    def __init__(self, facts: Dict[str, Any], orchestrator: HealOrchestrator):
        self.facts = facts
        self.orchestrator = orchestrator

    def final_check(self) -> None:
        facts = self.facts
        if facts["diverged"]:
            self.fail(
                "replicas at one applied count ended on different state "
                f"digests: {facts['diverged']}"
            )
        if facts["final_epoch"] > 0 and not facts["stale_share_rejected"]:
            self.fail(
                f"epoch {facts['final_epoch']} accepts an evicted replica's "
                "pre-refresh share"
            )
        missing = [
            name
            for name in ("detected", "replaced", "digests_agree")
            if not facts[name]
        ]
        if missing:
            raise LivenessViolation(
                f"not healed: {', '.join(missing)} (final epoch "
                f"{facts['final_epoch']}, {len(facts['heals'])} heal records)",
                self.orchestrator.dump(),
            )


class HealScenario(Scenario):
    """Ordered traffic on a durable, membership-aware group that must
    repair itself: every strategy adversary of the case is an intruder
    the orchestrator has to detect and replace."""

    name = "heal"

    # detection is scored evidence and a repair is an epoch change plus a
    # certified state transfer: slower than any one-shot protocol case
    deadline = 20.0
    time_limit = 2000.0

    #: value-carrying commands before the traffic turns to heartbeats
    TRAFFIC = 12

    def setup(
        self,
        runtime: SimRuntime,
        group: GroupConfig,
        crashed: Set[int],
        compromised: Set[int],
        deadline: float,
        time_limit: float,
    ) -> CaseSetup:
        n, t = group.n, group.t
        obs = runtime.obs
        faulty = compromised | crashed
        intruders = sorted(
            i for i in compromised
            if isinstance(runtime.contexts[i], AdversarialContext)
        )
        # the replicas' durable state (WAL, checkpoints, epoch files); the
        # driving process below removes it when it ends
        workdir = tempfile.TemporaryDirectory(prefix="repro-heal-")
        keychain = EpochKeychain(group)

        def build(party: Party, suffix: str, min_epoch: int = 0) -> RecoverableService:
            return RecoverableService(
                party,
                "heal",
                CounterMachine(),
                f"{workdir.name}/replica{party.id}{suffix}",
                checkpoint_interval=2,
                fsync="never",
                membership=Membership(keychain, min_epoch=min_epoch),
            )

        services: Dict[int, Optional[RecoverableService]] = {}
        for i, party in enumerate(make_parties(runtime)):
            services[i] = svc = build(party, "")
            svc.start()

        watchdog = LivenessWatchdog(
            deadline=deadline, recorder=obs, raise_on_stall=False
        )
        spawned = 0

        def factory(
            slot: int, member: str, min_epoch: int, kind: str
        ) -> RecoverableService:
            nonlocal spawned
            spawned += 1
            # The successor is a new process in the slot.  A replacement is
            # a *reimaged* machine: the intrusion does not survive into it.
            # A mere restart keeps the compromised image — the strategy
            # rides along, and the planner's escalation path is what evicts
            # it for good.  (The strategy's passive router tap keeps
            # watching; its hoarded shares are what the stale-share check
            # proves dead.)
            old = runtime.contexts[slot]
            runtime.restart(slot)
            if kind == "restart" and isinstance(old, AdversarialContext):
                runtime.contexts[slot] = AdversarialContext(
                    runtime.contexts[slot], old.strategy
                )
            return build(
                Party(runtime.contexts[slot]),
                f"-{member}-{spawned}",
                min_epoch=min_epoch,
            )

        orchestrator = HealOrchestrator(
            runtime,
            services,
            watchdog=watchdog,
            spares=[f"spare-{i}" for i in range(t)],
            service_factory=factory,
            recorder=obs,
        )
        orchestrator.attach()
        orchestrator.watch_services()
        watchdog.attach(runtime)
        watchdog.arm()
        orchestrator.start()

        def replaced(slot: int) -> bool:
            return any(
                h["outcome"] == "replaced" and h["slot"] == slot
                for h in orchestrator.heals
            )

        def live_honest() -> List[RecoverableService]:
            return [
                svc
                for slot, svc in services.items()
                if svc is not None
                and slot not in faulty
                and slot not in orchestrator._fenced
            ]

        facts: Dict[str, Any] = {}
        # The process must end inside the driver's time limit, or there is
        # no verdict to state: its loops stop early enough for their
        # longest sleep and the final settle.
        settle = 5.0 * deadline
        horizon = time_limit - settle - 20.0

        def drive() -> Generator[Any, Any, None]:
            with workdir:
                # Phase 1: traffic while the intrusion runs, until the
                # orchestrator has replaced every intruder's slot (or the
                # time budget expires).  The first TRAFFIC submissions
                # carry values; afterwards no-op heartbeats keep the
                # channel busy — silence detection needs a chatty group to
                # contrast the quiet replica against.  A submission
                # bouncing off a barrier window is simply retried on the
                # next pulse.
                sent = pulse = 0
                while runtime.now < horizon and not all(map(replaced, intruders)):
                    yield 8.0
                    targets = live_honest()
                    if not targets:
                        break
                    pulse += 1
                    command = (
                        b"add:%d" % (sent + 1) if sent < self.TRAFFIC else b"add:0"
                    )
                    try:
                        targets[pulse % len(targets)].submit(command)
                    except ReproError:
                        continue  # barrier window / backlog: retry next pulse
                    sent = min(sent + 1, self.TRAFFIC)

                # Phase 2: post-heal traffic — the healed group (successors
                # included) must converge on identical digests.
                successors = [services[v] for v in intruders if replaced(v)]
                post = live_honest() + [s for s in successors if s is not None]
                for i, svc in zip(range(3), itertools.cycle(post)):
                    while runtime.now < horizon:
                        try:
                            svc.submit(b"add:%d" % (100 + i))
                            break
                        except ReproError:
                            yield 8.0
                settled: Optional[int] = None
                while runtime.now < horizon:
                    yield 20.0
                    seqs = {s.applied_seq for s in post}
                    if seqs == {settled}:
                        break
                    settled = seqs.pop() if len(seqs) == 1 else None

                orchestrator.stop()
                watchdog.disarm()
                yield settle

                by_seq: Dict[int, Set[bytes]] = {}
                for s in post:
                    by_seq.setdefault(s.applied_seq, set()).add(
                        s.last_state_digest()
                    )
                diverged = {
                    seq: sorted(d.hex()[:16] for d in digests)
                    for seq, digests in by_seq.items()
                    if len(digests) > 1
                }
                epoch = max((s.membership_epoch for s in post), default=0)
                # Phase 3: the renewed attack.  An evicted replica still
                # holds its pre-refresh shares; they must be stale under
                # the new epoch.
                roster = post[0].membership.roster if post else None
                facts.update(
                    detected=all(
                        orchestrator.scorer.score(v, runtime.now) > 0
                        or any(h["slot"] == v for h in orchestrator.heals)
                        for v in intruders
                    ),
                    replaced=all(map(replaced, intruders)),
                    digests_agree=len(post) >= n - t
                    and len(by_seq) == 1
                    and not diverged,
                    diverged=diverged,
                    stale_share_rejected=epoch > 0
                    and all(
                        stale_share_rejected(keychain, roster, epoch, v)
                        for v in intruders
                    ),
                    final_epoch=epoch,
                    heals=list(orchestrator.heals),
                )

        return CaseSetup(
            suite=InvariantSuite().add(HealedInvariant(facts, orchestrator)),
            futures=[runtime.spawn(drive()).future],
            watchdog=watchdog,
            facts=facts,
        )


__all__ = [
    "CounterMachine",
    "HealScenario",
    "HealedInvariant",
    "stale_share_rejected",
]
