"""The orchestrator under the deterministic simulator.

Covers the tentpole acceptance criteria:

* the pinned closed-loop case — a ``doublevote`` replica is detected,
  drained and replaced autonomously, the healed group converges on one
  digest, and the evicted replica's pre-refresh shares are stale;
* the cells the loop reaches as a scenario of the one case runner: the
  ``silence`` restart → re-offend → replace escalation, heal × schedule
  chaos, ``t = 2`` simultaneous intruders, the CLI with its replaying
  ``REPRO:`` line, and the shrinker on a cell that does not heal;
* an epoch change that never commits rolls back without wedging the
  channel (the group keeps ordering on ``n - t`` replicas);
* an onboarding that times out mid-transfer rolls back and shuts the
  half-born successor down;
* a successor built without a restart is a protocol id collision that
  fails the case, never a rolled-back repair;
* the proactive refresh cadence fires with zero suspicion;
* every step shows up as ``heal.*`` counters in an exported BENCH record.
"""

import pytest

from repro.core.party import Party
from repro.heal.evidence import EV_EQUIVOCATION, Evidence
from repro.heal.orchestrator import COMMIT_TIMEOUT, HealOrchestrator
from repro.heal.planner import REFRESH_INTERVAL
from repro.heal.scenario import CounterMachine
from repro.membership.epoch import EpochKeychain
from repro.membership.service import Membership
from repro.net.runtime import SimRuntime
from repro.obs.export import make_record
from repro.obs.recorder import MemoryRecorder
from repro.recovery import RecoverableService
from repro.testing.schedule import main, make_scenario, run_case
from repro.testing.shrink import shrink_case

from tests.helpers import sim_runtime

pytestmark = pytest.mark.heal

#: the pinned seed of the e2e case — CI replays exactly this run
PINNED_CASE = 0x1

#: a ``silence`` cell that does not heal under its seed plan (ROADMAP item
#: 6(b)): the restarts succeed, but the loop replaces an honest replica
#: and the intruder's quarantine never commits (final epoch 1)
UNHEALED_CASE, UNHEALED_INTRUDER = 0xFF827FAF9C813ED9, 3


def loop_counters(counters):
    """The repair loop's trajectory: every heal, failure-detector and
    watchdog counter of a run."""
    return {
        name: value
        for name, value in counters.items()
        if name.split(".")[0] in ("heal", "fd", "liveness")
    }


def assert_healed(result):
    """Every acceptance check of the closed loop, intruder by intruder."""
    assert result.ok, result.repro_line()
    facts = result.facts
    assert facts["detected"] and facts["replaced"]
    assert facts["digests_agree"] and facts["stale_share_rejected"]
    assert facts["final_epoch"] >= 1
    replaced = {h["slot"] for h in facts["heals"] if h["outcome"] == "replaced"}
    assert result.adversaries and set(result.adversaries) <= replaced


def test_closed_loop_doublevote_pinned_case():
    """A doublevote intruder is autonomously detected, drained, replaced
    via certified state transfer; the healed group agrees byte-for-byte
    and the evicted replica's pre-refresh shares are rejected."""
    obs = MemoryRecorder()
    result = run_case(
        make_scenario("heal"), 4, 1, PINNED_CASE, keep=[],
        strategy="doublevote", recorder=obs,
    )
    assert_healed(result)

    # the pinned trajectory (a moved policy constant shows up here), and
    # the whole loop is observable: one BENCH record carries the story.
    assert result.facts["heals"] == [
        {"action": "replace", "slot": 1, "member": "spare-0", "epoch": 1,
         "outcome": "replaced", "seconds": 0.054369},
    ]
    record = make_record(
        "heal-e2e", experiment="heal-campaign", recorder=obs, outcome="ok"
    )
    assert "heal.replace.e2e" in record["phases"]
    assert loop_counters(record["counters"]) == {
        "fd.down.entered": 4, "fd.suspect.entered": 4,
        "heal.action.replace": 1, "heal.committed": 1,
        "heal.equivocation.observed": 2, "heal.evidence.equivocation": 2,
        "heal.evidence.fd-down": 4, "heal.evidence.stall": 4,
        "heal.fence": 1, "heal.onboarding": 1, "heal.plan.replace": 1,
        "heal.replaced": 1, "heal.started": 1, "heal.submitted": 1,
        "heal.ticks": 11,
        "liveness.barrier.suspends": 3, "liveness.checks": 2,
        "liveness.progress": 43, "liveness.stalls": 4,
    }


def test_silence_escalates_from_restart_to_replacement():
    """A silent replica is first restarted; the restart keeps the
    compromised image, so it re-offends and the planner escalates."""
    obs = MemoryRecorder()
    result = run_case(
        make_scenario("heal"), 4, 1, PINNED_CASE, keep=[], strategy="silence",
        recorder=obs,
    )
    assert_healed(result)
    # the pinned trajectory: the intruder (slot 1) is restarted, the
    # restarted image re-offends, and it is replaced
    assert result.facts["heals"] == [
        {"action": "restart", "slot": 1, "member": "replica-1", "epoch": 0,
         "outcome": "restarted", "seconds": 0.004337},
        {"action": "replace", "slot": 1, "member": "spare-0", "epoch": 1,
         "outcome": "replaced", "seconds": 0.054356},
    ]
    assert loop_counters(obs.snapshot()["counters"]) == {
        "fd.down.entered": 4, "fd.suspect.entered": 4,
        "heal.action.replace": 1, "heal.action.restart": 1,
        "heal.committed": 1, "heal.evidence.fd-down": 4,
        "heal.evidence.silence": 12, "heal.evidence.stall": 4,
        "heal.fence": 2, "heal.onboarding": 2, "heal.plan.replace": 1,
        "heal.plan.restart": 1, "heal.replaced": 1, "heal.restarted": 1,
        "heal.started": 1, "heal.submitted": 1, "heal.ticks": 51,
        "liveness.barrier.suspends": 3, "liveness.checks": 12,
        "liveness.progress": 268, "liveness.stalls": 4,
    }


def test_doublevote_heals_under_its_seed_fault_plan():
    """Heal × schedule chaos: delay spikes, a slow link and a healing
    partition run under the whole detect → replace loop."""
    result = run_case(
        make_scenario("heal"), 4, 1, PINNED_CASE, strategy="doublevote"
    )
    assert {d.kind for d in result.directives} == {
        "spike", "slow-link", "partition"
    }
    assert_healed(result)


def test_two_simultaneous_intruders_are_both_replaced():
    """n = 7, t = 2: both seed-derived intruders, under the seed plan."""
    result = run_case(
        make_scenario("heal"), 7, 2, PINNED_CASE, strategy="doublevote"
    )
    assert len(result.adversaries) == 2 and result.directives
    assert_healed(result)


def test_cli_runs_heal_cases_and_its_repro_line_replays(capsys):
    assert main([
        "--scenario", "heal", "--strategy", "doublevote",
        "--case", hex(PINNED_CASE),
    ]) == 0
    assert capsys.readouterr().out.startswith("OK: scenario=heal")

    assert main([
        "--scenario", "heal", "--strategy", "silence",
        "--case", hex(UNHEALED_CASE), "--adversaries", str(UNHEALED_INTRUDER),
    ]) == 1
    first = capsys.readouterr().out
    assert first.startswith("REPRO: scenario=heal strategy=silence")
    assert "kind=liveness" in first and "not healed: replaced" in first
    argv = first.split("replay: ")[1].split()
    assert main(argv[argv.index("repro.testing.schedule") + 1:]) == 1
    assert capsys.readouterr().out == first  # same kind, same error


def test_a_successor_without_restart_fails_the_case(monkeypatch, capsys):
    """Planted bug (the first layer of ROADMAP 6(b)): the heal factory
    builds the successor on the old process, whose router tombstoned the
    retired service's ids.  The collision is a bug, never a contained
    error or a rolled-back repair: the case fails with one ``REPRO:``."""
    monkeypatch.setattr(SimRuntime, "restart", lambda self, slot: None)  # BUG
    result = run_case(
        make_scenario("heal"), 4, 1, PINNED_CASE, keep=[], strategy="doublevote"
    )
    assert not result.ok and result.kind == "error"
    assert result.error == (
        "PidCollision: protocol id 'heal:rec' was already terminated"
    )
    assert main([
        "--scenario", "heal", "--strategy", "doublevote",
        "--case", hex(PINNED_CASE), "--keep", "none",
    ]) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert line == (
        f"REPRO: {result.describe()} kind=error error={result.error!r}"
    )


def test_shrinker_minimizes_an_unhealed_case():
    """Of the three scheduler directives the cell runs, one slow link is
    enough to stop the loop; without it the same intruder is replaced.
    (Three re-runs: the last one heals, which is what makes the subset
    minimal.)"""
    shrunk = shrink_case(
        make_scenario("heal"), 4, 1, UNHEALED_CASE, max_runs=3,
        strategy="silence", adversaries=[UNHEALED_INTRUDER],
    )
    assert not shrunk.ok and shrunk.kind == "liveness"
    assert shrunk.shrink_runs == 3 and shrunk.kept == [2]
    assert [str(d) for d in shrunk.directives] == ["slow-link(2, 1, 0.292)"]
    assert shrunk.replay_command().endswith("--adversaries 3 --keep 2")


class _Harness:
    """A live n=4 group with an orchestrator, no intrusion: the repair
    machinery is driven by directly injected evidence."""

    def __init__(self, tmp_path, group, *, factory=None, spares=None):
        self.obs = MemoryRecorder()
        self.runtime = sim_runtime(group, seed=5, recorder=self.obs)
        self.keychain = EpochKeychain(group)
        self.tmp_path = tmp_path
        self.spawned = 0
        self.services = {
            i: self.build(Party(ctx), "")
            for i, ctx in enumerate(self.runtime.contexts)
        }
        for svc in self.services.values():
            svc.start()
        self.orchestrator = HealOrchestrator(
            self.runtime,
            dict(self.services),
            spares=list(spares if spares is not None else ["spare-0"]),
            service_factory=factory or self.default_factory,
            recorder=self.obs,
        ).attach()
        self.orchestrator.start()

    def build(self, party, suffix, min_epoch=0):
        return RecoverableService(
            party,
            "svc",
            CounterMachine(),
            str(self.tmp_path / f"replica{party.id}{suffix}"),
            checkpoint_interval=2,
            fsync="never",
            membership=Membership(self.keychain, min_epoch=min_epoch),
        )

    def successor(self, slot):
        """A new process in ``slot``, for a successor service to run on."""
        self.runtime.restart(slot)
        return Party(self.runtime.contexts[slot])

    def default_factory(self, slot, member, min_epoch, kind):
        self.spawned += 1
        return self.build(
            self.successor(slot), f"-{member}-{self.spawned}", min_epoch
        )

    def accuse(self, slot, times=3):
        now = self.runtime.now
        for _ in range(times):
            self.orchestrator.ingest(Evidence(EV_EQUIVOCATION, slot, now))

    def live(self):
        return [
            svc
            for slot, svc in self.orchestrator.services.items()
            if svc is not None and slot not in self.orchestrator._fenced
        ]

    def pump(self, seconds):
        self.runtime.run(until=self.runtime.now + seconds)

    def order_traffic(self, count=2):
        """Prove the channel still orders commands on the live quorum."""
        live = self.live()
        base = max(s.applied_seq for s in live)
        for i in range(count):
            live[i % len(live)].submit(b"add:1")
        for _ in range(200):
            if all(s.applied_seq >= base + count for s in live):
                return True
            self.pump(5.0)
        return False


def test_commit_timeout_rolls_back_without_wedging(tmp_path, group4):
    """A submitted epoch change that never reaches the total order is
    rolled back: the spare returns to the pool, the slot cools down, and
    the surviving n - t replicas keep ordering traffic."""
    h = _Harness(tmp_path, group4)
    # fake the membership API on every executor: the submission
    # "succeeds" (a target epoch comes back) but no barrier ever fires.
    for svc in h.services.values():
        svc.membership.drain_and_replace = (  # type: ignore[method-assign]
            lambda slot, member, _svc=svc: _svc.membership_epoch + 1
        )
    h.accuse(3)
    h.pump(10.0)  # tick: fence + submit
    orch = h.orchestrator
    assert orch._in_flight is not None
    assert 3 in orch._fenced
    assert orch.spares == []  # the spare is committed to the attempt

    h.pump(COMMIT_TIMEOUT + 30.0)  # past the commit timeout, not the cooldown
    assert orch._in_flight is None
    assert orch.stats["rollbacks"] == 1
    assert orch.heals[-1]["outcome"] == "rolled-back"
    assert "commit timed out" in orch.heals[-1]["error"]
    assert orch.spares == ["spare-0+retry"]  # returned, name burnt
    assert orch._cooldowns[3] > h.runtime.now

    orch.stop()
    assert h.order_traffic()  # the group never wedged


def test_onboard_timeout_shuts_successor_down_and_rolls_back(
    tmp_path, group4
):
    """An onboarding stuck mid-state-transfer (its pull requests go
    nowhere) is abandoned at the timeout: the half-born successor is shut
    down and the group keeps running without the slot."""
    stuck = []

    def wedged_factory(slot, member, min_epoch, kind):
        svc = h.build(h.successor(slot), f"-{member}-stuck", min_epoch)
        svc._send_pull = lambda: None  # type: ignore[method-assign]
        stuck.append(svc)
        return svc

    h = _Harness.__new__(_Harness)
    _Harness.__init__(h, tmp_path, group4, factory=wedged_factory)
    h.accuse(3)
    for _ in range(1000):
        if h.orchestrator.stats["rollbacks"]:
            break
        h.pump(1.0)
    orch = h.orchestrator
    assert orch.stats["rollbacks"] == 1
    assert orch.heals[-1]["outcome"] == "rolled-back"
    assert "onboarding timed out" in orch.heals[-1]["error"]
    assert stuck
    assert all(
        s.channel is None or s.channel.is_closed() for s in stuck
    )  # the half-born successor was shut down, not leaked
    assert orch.services[3] is None or 3 in orch._fenced

    orch.stop()
    assert h.order_traffic()


def test_proactive_refresh_cadence_with_zero_suspicion(tmp_path, group4):
    """Shares rotate every R seconds with nobody under suspicion — the
    paper's proactive mobile-adversary countermeasure on a timer."""
    h = _Harness(tmp_path, group4)
    for _ in range(int(3 * REFRESH_INTERVAL / 10.0)):
        if h.orchestrator.stats["refreshed"] >= 2:
            break
        h.pump(10.0)
    orch = h.orchestrator
    orch.stop()
    h.pump(30.0)
    assert orch.stats["refreshed"] >= 2
    assert orch.stats["rollbacks"] == 0 and orch.stats["aborts"] == 0
    epochs = {svc.membership_epoch for svc in h.live()}
    assert len(epochs) == 1 and epochs.pop() >= 2
    counters = h.obs.snapshot()["counters"]
    assert counters["heal.plan.refresh"] >= 2
    assert counters["heal.refreshed"] >= 2
    # roster surgery never happened — only share rotation
    assert "heal.fence" not in counters
