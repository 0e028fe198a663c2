"""The closed-loop heal case: intrusion → detection → eviction → re-attack.

One seeded, deterministic end-to-end scenario composing the whole stack:

1. an ``n``-replica reconfigurable group serves ordered traffic under
   the simulator; one seeded *victim* replica runs a real intrusion
   strategy from :mod:`repro.adversary.strategies` (``doublevote``,
   ``badshare``, ``silence``, ...), put there by
   :func:`~repro.adversary.context.infect`;
2. the :class:`~repro.heal.orchestrator.HealOrchestrator` — wired to a
   report-mode watchdog, the equivocation/silence router tap, and the
   router error streams — must *autonomously* detect the victim, fence
   it, drain-and-replace it with a spare via epoch reconfiguration and
   certified state transfer (no operator call anywhere in the run);
3. post-heal, the honest group and the onboarded successor must agree
   byte-for-byte on delivered state, and a renewed attack using the
   evicted replica's *pre-refresh* shares must be rejected: the epoch
   rotation made them cryptographically stale (checked directly against
   the new epoch's verifier).

Failures print a one-line ``REPRO:`` replay command, through the same
:func:`~repro.testing.schedule.report_failures` as every simulator case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.adversary.context import AdversarialContext, infect
from repro.adversary.watchdog import LivenessWatchdog
from repro.app.replication import StateMachine
from repro.common import rng as rng_mod
from repro.common.errors import ReproError
from repro.core.party import make_parties
from repro.crypto.dealer import GroupConfig
from repro.heal.evidence import EquivocationMonitor, SuspicionScorer
from repro.heal.orchestrator import HealOrchestrator, OrchestratorConfig
from repro.heal.planner import PlannerConfig, RecoveryPlanner
from repro.membership.epoch import EpochKeychain
from repro.membership.service import Membership
from repro.net.latency import lan_latency
from repro.net.runtime import SimRuntime
from repro.obs.recorder import Recorder
from repro.recovery.service import RecoverableService
from repro.testing.schedule import default_group


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


@dataclass
class HealResult:
    """Outcome of one closed-loop heal case; everything needed to replay."""

    ok: bool
    strategy: str
    n: int
    t: int
    case_seed: int
    victim: int
    #: the orchestrator detected the victim (its score crossed threshold)
    detected: bool = False
    #: the victim's slot was drained and a successor onboarded
    replaced: bool = False
    #: all live replicas ended on one identical state digest
    digests_agree: bool = False
    #: the victim's pre-refresh share was rejected by the new epoch
    stale_share_rejected: bool = False
    final_epoch: int = 0
    final_value: Optional[int] = None
    heals: List[Dict[str, Any]] = field(default_factory=list)
    suspicion: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None

    def replay_command(self) -> str:
        return (
            f"PYTHONPATH=src python -m repro.heal"
            f" --strategy {self.strategy} --n {self.n} --t {self.t}"
            f" --case {hex(self.case_seed)} --victim {self.victim}"
        )

    def repro_line(self) -> str:
        return (
            f"REPRO: strategy={self.strategy} n={self.n} t={self.t}"
            f" case={hex(self.case_seed)} victim={self.victim}"
            f" detected={self.detected} replaced={self.replaced}"
            f" digests_agree={self.digests_agree}"
            f" stale_share_rejected={self.stale_share_rejected}"
            f" error={self.error!r}"
            f"\n  replay: {self.replay_command()}"
        )


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


def run_heal_case(
    strategy_name: str,
    case_seed: int,
    workdir: str,
    *,
    n: int = 4,
    t: int = 1,
    victim: Optional[int] = None,
    group: Optional[GroupConfig] = None,
    recorder: Optional[Recorder] = None,
    deadline: float = 20.0,
    time_limit: float = 2000.0,
    traffic: int = 12,
    planner_config: Optional[PlannerConfig] = None,
    orchestrator_config: Optional[OrchestratorConfig] = None,
) -> HealResult:
    """Execute one closed-loop heal case; deterministic in all arguments.

    ``workdir`` hosts the replicas' durable state (WAL, checkpoints,
    epoch files) — a fresh temporary directory per case.
    """
    group = group or default_group(n, t)
    if victim is None:
        victim = rng_mod.derive(case_seed, "victim").randrange(n)
    result = HealResult(
        ok=False,
        strategy=strategy_name,
        n=n,
        t=t,
        case_seed=case_seed,
        victim=victim,
    )
    runtime = SimRuntime(
        group,
        latency=lan_latency(),
        seed=("heal", case_seed),
        recorder=recorder,
    )
    obs = runtime.obs

    # Before any protocol object exists: the victim's whole stack runs
    # behind the strategy.
    infect(runtime, victim, strategy_name, case_seed, frozenset({victim}))

    parties = make_parties(runtime)
    keychain = EpochKeychain(group)

    def build(slot: int, suffix: str, min_epoch: int = 0) -> RecoverableService:
        directory = f"{workdir}/replica{slot}{suffix}"
        return RecoverableService(
            parties[slot],
            "heal",
            CounterMachine(),
            directory,
            checkpoint_interval=2,
            fsync="never",
            membership=Membership(keychain, min_epoch=min_epoch),
        )

    services: Dict[int, Optional[RecoverableService]] = {
        i: build(i, "") for i in range(n)
    }
    for svc in services.values():
        assert svc is not None
        svc.start()

    watchdog = LivenessWatchdog(
        deadline=deadline, recorder=obs, raise_on_stall=False
    )
    scorer = SuspicionScorer(half_life=60.0, recorder=obs)
    planner = RecoveryPlanner(
        planner_config
        or PlannerConfig(
            replace_threshold=5.0,
            restart_threshold=10.0,
            refresh_interval=600.0,
        ),
        recorder=obs,
    )
    spawned = 0

    def factory(
        slot: int, member: str, min_epoch: int, kind: str
    ) -> RecoverableService:
        nonlocal spawned
        spawned += 1
        ctx = runtime.contexts[slot]
        if kind == "replace" and isinstance(ctx, AdversarialContext):
            # a replacement is a *reimaged* machine: the intrusion does
            # not survive into the successor process.  A mere restart
            # keeps the compromised image — the strategy rides along, and
            # the planner's escalation path is what evicts it for good.
            # (The strategy's passive router tap keeps watching; its
            # hoarded shares are what the stale-share check proves dead.)
            runtime.contexts[slot] = ctx.inner
            parties[slot] = make_parties(runtime)[slot]
        return build(slot, f"-{member}-{spawned}", min_epoch=min_epoch)

    orchestrator = HealOrchestrator(
        runtime,
        services,
        scorer=scorer,
        planner=planner,
        watchdog=watchdog,
        spares=[f"spare-{i}" for i in range(t)],
        service_factory=factory,
        config=orchestrator_config
        or OrchestratorConfig(
            tick_interval=5.0,
            commit_timeout=200.0,
            onboard_timeout=600.0,
            retry_base=2.0,
            retry_cap=30.0,
            silence_after=4.0 * deadline,
        ),
        recorder=obs,
    )
    # the monitor's sink is the orchestrator, so it is built second and
    # slotted in before attach() installs the router taps
    monitor = EquivocationMonitor(
        orchestrator.ingest, lambda: runtime.now, recorder=obs
    )
    orchestrator.monitor = monitor
    orchestrator.attach()
    orchestrator.watch_services()
    watchdog.attach(runtime)
    watchdog.arm()
    orchestrator.start()

    def live_honest() -> List[RecoverableService]:
        return [
            svc
            for slot, svc in services.items()
            if svc is not None and slot != victim and slot not in orchestrator._fenced
        ]

    def pump(upto: float) -> None:
        runtime.run(until=upto)

    try:
        # Phase 1: traffic while the intrusion runs, until the
        # orchestrator completes a replacement of the victim's slot (or
        # the time budget expires).  The first ``traffic`` submissions
        # carry values; afterwards no-op heartbeats keep the channel
        # busy — silence detection needs a chatty group to contrast the
        # quiet replica against.  A submission bouncing off a barrier
        # window is simply retried on the next pulse.
        value = 0
        sent = 0
        pulses = 0
        clock = runtime.now
        while clock < time_limit:
            if any(
                h["outcome"] == "replaced" and h["slot"] == victim
                for h in orchestrator.heals
            ):
                break
            clock += 8.0
            pump(clock)
            targets = live_honest()
            if not targets:
                break
            pulses += 1
            command = (
                b"add:%d" % (sent + 1) if sent < traffic else b"add:0"
            )
            try:
                targets[pulses % len(targets)].submit(command)
            except ReproError:
                continue  # barrier window / backlog: retry next pulse
            if sent < traffic:
                value += sent + 1
                sent += 1

        result.detected = scorer.score(victim, runtime.now) > 0 or any(
            h["slot"] == victim for h in orchestrator.heals
        )
        result.replaced = any(
            h["outcome"] == "replaced" and h["slot"] == victim
            for h in orchestrator.heals
        )

        # Phase 3: post-heal traffic — the healed group (successor
        # included) must converge on identical digests.
        post = live_honest() + (
            [services[victim]]
            if result.replaced and services[victim] is not None
            else []
        )
        post = [s for s in post if s is not None]
        tail_value = 0
        for i in range(3):
            sent_ok = False
            while clock < time_limit and not sent_ok:
                try:
                    post[i % len(post)].submit(b"add:%d" % (100 + i))
                    sent_ok = True
                except ReproError:
                    clock += 8.0
                    pump(clock)
            if sent_ok:
                tail_value += 100 + i
        target_seq = None
        while clock < time_limit:
            clock += 20.0
            pump(clock)
            seqs = {s.applied_seq for s in post}
            if len(seqs) == 1:
                if target_seq is None:
                    target_seq = seqs.pop()
                    continue
                if seqs == {target_seq}:
                    break
                target_seq = None

        orchestrator.stop()
        watchdog.disarm()
        runtime.run(until=runtime.now + 5 * deadline)

        digests = {s.last_state_digest() for s in post}
        result.digests_agree = len(digests) == 1 and len(post) >= n - t
        values = {getattr(s.state, "value", None) for s in post}
        result.final_value = values.pop() if len(values) == 1 else None
        epochs = {s.membership_epoch for s in post}
        result.final_epoch = max(epochs) if epochs else 0

        # Phase 4: the renewed attack.  The evicted replica still holds
        # its pre-refresh shares; they must be stale under the new epoch.
        anchor = post[0] if post else None
        if anchor is not None and result.final_epoch > 0:
            result.stale_share_rejected = stale_share_rejected(
                keychain, anchor.membership.roster, result.final_epoch, victim
            )
        result.heals = list(orchestrator.heals)
        result.suspicion = scorer.dump(runtime.now)
        result.ok = (
            result.detected
            and result.replaced
            and result.digests_agree
            and result.stale_share_rejected
        )
        if not result.ok and result.error is None:
            missing = [
                name
                for name, got in (
                    ("detected", result.detected),
                    ("replaced", result.replaced),
                    ("digests_agree", result.digests_agree),
                    ("stale_share_rejected", result.stale_share_rejected),
                )
                if not got
            ]
            result.error = f"acceptance failed: {', '.join(missing)}"
    except ReproError as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    return result


__all__ = [
    "CounterMachine",
    "HealResult",
    "run_heal_case",
    "stale_share_rejected",
]
