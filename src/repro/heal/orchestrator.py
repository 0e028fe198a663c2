"""The intrusion-recovery orchestrator: detection wired to repair.

:class:`HealOrchestrator` is the control loop that closes SINTRA's
tolerance story: the group does not just *survive* an intrusion, it
autonomously evicts the intruder and restores full redundancy.  On a
recurring tick (runtime clock, so the loop is deterministic under the
simulator) it:

1. ingests evidence — failure-detector transitions and stall reports
   from a report-mode :class:`~repro.adversary.watchdog.LivenessWatchdog`,
   equivocation and silence from the
   :class:`~repro.heal.evidence.EquivocationMonitor` router tap, and
   malformed messages the routers refused from their peers;
2. asks the :class:`~repro.heal.planner.RecoveryPlanner` for at most
   one action against the current :class:`~repro.heal.planner.GroupView`;
3. executes it as a small state machine::

       pending -> submitted -> committed -> onboarding -> done
                      |             |            |
                      +-- retry/abort            +-- rolled-back

   Submission goes through a healthy executor replica's programmatic
   membership API (``svc.membership``: :meth:`~repro.membership.service.
   Membership.drain_and_replace` et al.) with exponential-backoff retries that
   rotate executors; the epoch-commit and onboarding steps each carry a
   timeout whose expiry *rolls the execution back* without wedging the
   channel — the group keeps running on ``>= n - t`` replicas and the
   planner may try again after a cooldown.

Fencing: the victim of a replace/quarantine/restart is shut down
*before* the membership change is submitted.  In the paper's model the
trusted local entity of each server enforces epoch key erasure; here the
orchestrator plays the operator that powers the machine off — the
evicted process never observes the new epoch, and its retained shares
are invalidated by the rotation at the barrier regardless.

Everything the orchestrator does is visible as ``heal.*`` counters and
phases in exported BENCH records (docs/SELFHEALING.md).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set

from repro.adversary.watchdog import LivenessWatchdog, ProgressSentinel, sentinel_for
from repro.common.errors import (
    ChannelCongested,
    ConfigError,
    PidCollision,
    ReconfigInProgress,
    ReproError,
    ServiceNotOpen,
)
from repro.heal.evidence import (
    EV_BAD_CERT,
    EV_FD_DOWN,
    EV_FD_SUSPECT,
    EV_SILENCE,
    EV_STALL,
    EquivocationMonitor,
    Evidence,
    SuspicionScorer,
)
from repro.heal.planner import (
    REPLACE_THRESHOLD,
    RESTART_THRESHOLD,
    SLOT_COOLDOWN,
    Action,
    DrainAndReplace,
    GroupView,
    Quarantine,
    RecoveryPlanner,
    RestartReplica,
)
from repro.net.failure_detector import DOWN, SUSPECT
from repro.obs.recorder import NULL as NULL_RECORDER
from repro.obs.recorder import Recorder
from repro.recovery.service import RecoverableService

#: execution states
PENDING = "pending"
SUBMITTED = "submitted"
COMMITTED = "committed"
ONBOARDING = "onboarding"
DONE = "done"
ROLLED_BACK = "rolled-back"

#: a factory building the replacement service process for ``slot`` under
#: name ``member`` with the given epoch floor; the orchestrator calls
#: ``recover()`` on the result.  ``kind`` is ``"replace"`` (a fresh,
#: reimaged machine) or ``"restart"`` (the same machine recycled — an
#: intrusion may survive it, which is what escalation is for).
ServiceFactory = Callable[[int, str, int, str], RecoverableService]

#: control-loop cadence, in seconds
TICK_INTERVAL = 5.0
#: submitted -> committed deadline; expiry rolls the execution back
COMMIT_TIMEOUT = 200.0
#: state-transfer deadline for a restarted or replacement replica
ONBOARD_TIMEOUT = 600.0
#: a refused submission is retried after ``RETRY_BASE * 2 ** k`` seconds,
#: at most ``RETRY_CAP``, and abandoned after ``MAX_RETRIES`` retries
RETRY_BASE = 2.0
RETRY_CAP = 30.0
MAX_RETRIES = 8


class _Execution:
    """One in-flight action's mutable state."""

    def __init__(self, action: Action, started: float):
        self.action = action
        self.state = PENDING
        self.started = started
        self.attempts = 0
        self.submit_token = 0
        self.submitted_at = 0.0
        self.target_epoch: Optional[int] = None
        self.member: Optional[str] = None
        #: the member name was taken from the spare pool (vs. pinned by
        #: the action) — a failed execution must return it
        self.spare_taken = False
        self.successor: Optional[RecoverableService] = None
        self.error: Optional[str] = None


class HealOrchestrator:
    """Autonomous detect → plan → repair loop over one replica group."""

    def __init__(
        self,
        runtime: Any,
        services: Dict[int, Optional[RecoverableService]],
        *,
        watchdog: Optional[LivenessWatchdog] = None,
        spares: Optional[List[str]] = None,
        service_factory: Optional[ServiceFactory] = None,
        recorder: Optional[Recorder] = None,
    ):
        if watchdog is not None and watchdog.raise_on_stall:
            raise ConfigError(
                "the orchestrator needs a report-mode watchdog "
                "(LivenessWatchdog(..., raise_on_stall=False))"
            )
        self.runtime = runtime
        self.services = services
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self.scorer = SuspicionScorer(recorder=self.obs)
        self.planner = RecoveryPlanner(recorder=self.obs)
        self.monitor = EquivocationMonitor(
            self.ingest, lambda: runtime.now, recorder=self.obs
        )
        self.watchdog = watchdog
        self.spares: List[str] = list(spares or [])
        self.service_factory = service_factory
        self.active = False
        self.ticks = 0
        self.stats: Dict[str, int] = {
            "replaced": 0,
            "restarted": 0,
            "quarantined": 0,
            "refreshed": 0,
            "rollbacks": 0,
            "aborts": 0,
            "retries": 0,
            "fenced": 0,
        }
        #: completed heal records (action kind, slot, duration, outcome)
        self.heals: List[Dict[str, Any]] = []
        self._in_flight: Optional[_Execution] = None
        self._fenced: Set[int] = set()
        self._cooldowns: Dict[int, float] = {}
        self._restarts: Dict[int, int] = {}
        self._last_refresh = 0.0
        self._err_seen: Dict[int, int] = {}

    # -- wiring ----------------------------------------------------------------------

    def attach(self) -> "HealOrchestrator":
        """Hook every evidence stream; call once before :meth:`start`."""
        for slot, svc in self.services.items():
            if svc is not None:
                self._hook_service(slot, svc)
        if self.watchdog is not None:
            self.watchdog.stall_listeners.append(self._on_stall)
            self.watchdog.transition_listeners.append(self._on_fd_transition)
        self.monitor.install(self.runtime)
        self._last_refresh = self.runtime.now
        return self

    def _hook_service(self, slot: int, svc: RecoverableService) -> None:
        svc.membership.listeners.append(
            lambda event, value, _slot=slot: self._on_epoch_event(_slot, event, value)
        )

    def watch_services(self) -> None:
        """Register one service sentinel per live replica on the watchdog."""
        if self.watchdog is None:
            raise ConfigError("no watchdog to watch services with")
        for slot in sorted(self.services):
            svc = self.services[slot]
            if svc is not None:
                self.watchdog.watch(sentinel_for(f"svc[{slot}]", slot, svc))

    # -- evidence ingestion ----------------------------------------------------------

    def ingest(self, evidence: Evidence) -> None:
        """External evidence entry point (also the monitor's sink)."""
        if evidence.party in self._fenced:
            return
        self.scorer.add(evidence)

    def _on_stall(self, sentinel: ProgressSentinel, stalled_for: float) -> None:
        self.ingest(
            Evidence(
                EV_STALL,
                sentinel.party,
                self.runtime.now,
                detail=f"{sentinel.name} stalled {stalled_for:.1f}s",
            )
        )

    def _on_fd_transition(self, peer: int, old: str, new: str) -> None:
        if new == SUSPECT:
            self.ingest(Evidence(EV_FD_SUSPECT, peer, self.runtime.now))
        elif new == DOWN:
            self.ingest(Evidence(EV_FD_DOWN, peer, self.runtime.now))

    def _scan_router_errors(self) -> None:
        """A malformed message a router refused is evidence against the
        peer that sent it; what a party sent itself never crossed a link."""
        now = self.runtime.now
        for i, router in enumerate(self.runtime.routers):
            start = self._err_seen.get(i, 0)
            errors = router.errors
            for pid, sender, exc in errors[start:]:
                if sender != i:
                    self.ingest(Evidence(EV_BAD_CERT, sender, now, detail=f"{pid}: {exc}"))
            self._err_seen[i] = len(errors)

    def _check_silence(self) -> None:
        # A sender is accused once it starved an otherwise fresh observer
        # for four watchdog deadlines: a few multiples of the deadline, so
        # ordinary scheduling jitter never reads as muting.
        if self.watchdog is None:
            return
        now = self.runtime.now
        for party in self.monitor.silent_parties(now, 4.0 * self.watchdog.deadline):
            if party in self.services and self.services[party] is not None:
                self.ingest(Evidence(EV_SILENCE, party, now))

    # -- epoch events ----------------------------------------------------------------

    def _on_epoch_event(self, slot: int, event: str, value: int) -> None:
        if event == "barrier":
            # the frozen-channel window is expected silence, not a stall
            if self.watchdog is not None:
                self.watchdog.suspend()
            return
        if self.watchdog is not None:
            self.watchdog.resume()
        # every committed epoch change rotates every share (the keychain
        # derives per-epoch material), so any commit resets the proactive
        # refresh clock.
        self._last_refresh = self.runtime.now
        exec_ = self._in_flight
        if (
            exec_ is not None
            and exec_.state == SUBMITTED
            and exec_.target_epoch is not None
            and value >= exec_.target_epoch
        ):
            self._committed(exec_)

    # -- the control loop ------------------------------------------------------------

    def start(self) -> None:
        if self.active:
            return
        self.active = True
        if self.obs.enabled:
            self.obs.count("heal.started")
        self._schedule_tick()

    def stop(self) -> None:
        """Stop scheduling ticks (in-flight timers drain as no-ops)."""
        self.active = False

    def _schedule_tick(self) -> None:
        self.runtime.sim.schedule(TICK_INTERVAL, self._tick)

    def _tick(self) -> None:
        if not self.active:
            return
        self.ticks += 1
        now = self.runtime.now
        if self.obs.enabled:
            self.obs.count("heal.ticks")
        self._scan_router_errors()
        self._check_silence()
        self.scorer.compact(now)
        if self._in_flight is None:
            action = self.planner.plan(self._view(now))
            if action is not None:
                self._execute(action)
        self._schedule_tick()

    def _view(self, now: float) -> GroupView:
        n = len(self.services)
        live = {
            slot
            for slot, svc in self.services.items()
            if svc is not None and slot not in self._fenced
        }
        scores = {slot: self.scorer.score(slot, now) for slot in self.services}
        byzantine = {
            slot: self.scorer.byzantine_score(slot, now) for slot in self.services
        }
        healthy = {
            slot
            for slot in live
            if byzantine[slot] < REPLACE_THRESHOLD and scores[slot] < RESTART_THRESHOLD
        }
        t = 0
        vacancies = 0
        roster_members: tuple = ()
        for slot in sorted(live):
            svc = self.services[slot]
            if svc is not None:
                t = svc.party.t
                roster_members = svc.membership.roster.members
                vacancies = sum(1 for m in roster_members if m is None)
                break
        dark = {
            slot
            for slot in self._fenced
            if slot < len(roster_members) and roster_members[slot] is not None
        }
        return GroupView(
            n=n,
            t=t,
            now=now,
            live=live,
            healthy=healthy,
            scores=scores,
            byzantine=byzantine,
            spares=len(self.spares),
            vacancies=vacancies,
            last_refresh=self._last_refresh,
            in_flight=self._in_flight is not None,
            cooldowns=dict(self._cooldowns),
            restarts=dict(self._restarts),
            fenced=dark,
        )

    # -- execution -------------------------------------------------------------------

    def _scope(self, action: Action) -> Any:
        return ("heal", action.kind)

    def _execute(self, action: Action) -> None:
        exec_ = _Execution(action, self.runtime.now)
        self._in_flight = exec_
        if self.obs.enabled:
            self.obs.count(f"heal.action.{action.kind}")
            self.obs.phase(self._scope(action), f"heal.{action.kind}.e2e")
        if isinstance(action, (DrainAndReplace, Quarantine, RestartReplica)):
            self._fence(action.slot)
        if isinstance(action, DrainAndReplace):
            if action.member:
                exec_.member = action.member
            elif self.spares:
                exec_.member = self.spares.pop(0)
                exec_.spare_taken = True
            else:
                self._abort(exec_, "no spare available at execution time")
                return
        if isinstance(action, RestartReplica):
            # no epoch change: recycle the process in place and re-onboard
            # it from the group's certified state.
            svc = None
            for s in self.services.values():
                if s is not None:
                    svc = s
                    break
            if svc is None:
                self._abort(exec_, "no live service to restart against")
                return
            member = svc.membership.roster.members[action.slot] or f"replica-{action.slot}"
            exec_.target_epoch = svc.membership_epoch
            self._onboard(exec_, action.slot, member)
            return
        self._submit(exec_)

    def _fence(self, slot: int) -> None:
        """Power the victim off before surgery (operator fencing)."""
        svc = self.services.get(slot)
        if svc is None or slot in self._fenced:
            return
        try:
            svc.shutdown()
        except ReproError:
            pass  # already closed — fencing is idempotent
        self._fenced.add(slot)
        self.stats["fenced"] += 1
        if self.watchdog is not None:
            self.watchdog.unwatch(f"svc[{slot}]")
        if self.obs.enabled:
            self.obs.count("heal.fence")

    def _executors(self) -> List[RecoverableService]:
        out = []
        for slot in sorted(self.services):
            svc = self.services[slot]
            if svc is not None and slot not in self._fenced:
                out.append(svc)
        return out

    def _submit(self, exec_: _Execution) -> None:
        if self._in_flight is not exec_ or exec_.state not in (PENDING,):
            return
        executors = self._executors()
        if not executors:
            self._abort(exec_, "no live executor replica")
            return
        svc = executors[exec_.attempts % len(executors)]
        action = exec_.action
        try:
            if isinstance(action, DrainAndReplace):
                target = svc.membership.drain_and_replace(action.slot, exec_.member or "")
            elif isinstance(action, Quarantine):
                target = svc.membership.retire_slot(action.slot)
            else:
                target = svc.membership.refresh_shares()
        except (ReconfigInProgress, ChannelCongested, ServiceNotOpen) as exc:
            self._retry(exec_, str(exc))
            return
        except ConfigError as exc:
            self._abort(exec_, f"inadmissible change: {exc}")
            return
        exec_.state = SUBMITTED
        exec_.submitted_at = self.runtime.now
        exec_.submit_token += 1
        exec_.target_epoch = target
        if self.obs.enabled:
            self.obs.count("heal.submitted")
        token = exec_.submit_token
        self.runtime.sim.schedule(
            COMMIT_TIMEOUT, self._commit_timeout, exec_, token
        )

    def _retry(self, exec_: _Execution, why: str) -> None:
        exec_.attempts += 1
        if exec_.attempts > MAX_RETRIES:
            self._abort(exec_, f"retries exhausted: {why}")
            return
        self.stats["retries"] += 1
        if self.obs.enabled:
            self.obs.count("heal.retry")
        delay = min(RETRY_CAP, RETRY_BASE * 2.0 ** (exec_.attempts - 1))
        self.runtime.sim.schedule(delay, self._submit, exec_)

    def _commit_timeout(self, exec_: _Execution, token: int) -> None:
        if (
            self._in_flight is not exec_
            or exec_.state != SUBMITTED
            or exec_.submit_token != token
        ):
            return
        self._rollback(exec_, "epoch commit timed out")

    def _committed(self, exec_: _Execution) -> None:
        exec_.state = COMMITTED
        if self.obs.enabled:
            self.obs.count("heal.committed")
        action = exec_.action
        if isinstance(action, DrainAndReplace):
            self._onboard(exec_, action.slot, exec_.member or "")
        elif isinstance(action, Quarantine):
            self._finish(exec_, "quarantined")
        else:
            self._finish(exec_, "refreshed")

    def _onboard(self, exec_: _Execution, slot: int, member: str) -> None:
        if self.service_factory is None:
            self._abort(exec_, "no service factory to onboard with")
            return
        exec_.state = ONBOARDING
        exec_.member = member
        floor = exec_.target_epoch if exec_.target_epoch is not None else 0
        kind = "restart" if isinstance(exec_.action, RestartReplica) else "replace"
        try:
            successor = self.service_factory(slot, member, floor, kind)
            exec_.successor = successor
            future = successor.recover()
        except PidCollision:
            raise  # the factory's bug, not a failed onboarding
        except ReproError as exc:
            self._rollback(exec_, f"onboarding failed to launch: {exc}")
            return
        if self.obs.enabled:
            self.obs.count("heal.onboarding")

        def waiter():  # type: ignore[no-untyped-def]
            yield future
            self._onboard_done(exec_, slot)

        self.runtime.spawn(waiter())
        self.runtime.sim.schedule(
            ONBOARD_TIMEOUT, self._onboard_timeout, exec_
        )

    def _onboard_done(self, exec_: _Execution, slot: int) -> None:
        if self._in_flight is not exec_ or exec_.state != ONBOARDING:
            return  # timed out and rolled back while we recovered
        successor = exec_.successor
        assert successor is not None
        self.services[slot] = successor
        self._fenced.discard(slot)
        self._hook_service(slot, successor)
        self.scorer.clear(slot)
        self.monitor.forget(slot)
        if self.watchdog is not None:
            self.watchdog.watch(sentinel_for(f"svc[{slot}]", slot, successor))
        if isinstance(exec_.action, RestartReplica):
            self._restarts[slot] = self._restarts.get(slot, 0) + 1
            self._finish(exec_, "restarted")
        else:
            # a fresh machine in the slot: restart history is moot
            self._restarts.pop(slot, None)
            self._finish(exec_, "replaced")

    def _onboard_timeout(self, exec_: _Execution) -> None:
        if self._in_flight is not exec_ or exec_.state != ONBOARDING:
            return
        if exec_.successor is not None:
            try:
                exec_.successor.shutdown()
            except ReproError:
                pass
        self._rollback(exec_, "onboarding timed out mid-transfer")

    def _slot_of(self, action: Action) -> Optional[int]:
        return getattr(action, "slot", None)

    def _return_spare(self, exec_: _Execution) -> None:
        """A spare consumed by a failed execution goes back to the pool.

        Its name is burnt (the roster may have seen it), so the returned
        spare gets a retry suffix — spare identity is operator-facing
        labeling, not key material, which is always epoch-derived.
        """
        if exec_.spare_taken and exec_.member:
            self.spares.append(f"{exec_.member}+retry")
            exec_.spare_taken = False

    def _finish(self, exec_: _Execution, outcome: str) -> None:
        exec_.state = DONE
        self.stats[outcome] += 1
        now = self.runtime.now
        if self.obs.enabled:
            self.obs.count(f"heal.{outcome}")
            self.obs.observe("heal.action.seconds", now - exec_.started)
            self.obs.phase_end(self._scope(exec_.action))
        self.heals.append(
            {
                "action": exec_.action.kind,
                "slot": self._slot_of(exec_.action),
                "member": exec_.member,
                "epoch": exec_.target_epoch,
                "outcome": outcome,
                "seconds": round(now - exec_.started, 6),
            }
        )
        self._in_flight = None

    def _rollback(self, exec_: _Execution, why: str) -> None:
        """Abandon the execution without wedging the group.

        The fenced slot stays fenced (the group runs on ``>= n - t``
        replicas, which is exactly what the guardrail guaranteed before
        fencing) and the slot enters a cooldown so the planner can try
        again later rather than thrash.
        """
        exec_.state = ROLLED_BACK
        exec_.error = why
        self.stats["rollbacks"] += 1
        self._return_spare(exec_)
        if isinstance(exec_.action, RestartReplica):
            # a restart that could not even come back counts toward
            # escalation just like one that came back sick
            self._restarts[exec_.action.slot] = (
                self._restarts.get(exec_.action.slot, 0) + 1
            )
        slot = self._slot_of(exec_.action)
        if slot is not None:
            self._cooldowns[slot] = self.runtime.now + SLOT_COOLDOWN
        if self.obs.enabled:
            self.obs.count("heal.rollback")
            self.obs.phase_end(self._scope(exec_.action))
        self.heals.append(
            {
                "action": exec_.action.kind,
                "slot": slot,
                "member": exec_.member,
                "epoch": exec_.target_epoch,
                "outcome": "rolled-back",
                "error": why,
            }
        )
        self._in_flight = None

    def _abort(self, exec_: _Execution, why: str) -> None:
        """Give up on an execution that never reached the total order."""
        exec_.state = ROLLED_BACK
        exec_.error = why
        self.stats["aborts"] += 1
        self._return_spare(exec_)
        slot = self._slot_of(exec_.action)
        if slot is not None:
            self._cooldowns[slot] = self.runtime.now + SLOT_COOLDOWN
        if self.obs.enabled:
            self.obs.count("heal.abort")
            self.obs.phase_end(self._scope(exec_.action))
        self.heals.append(
            {
                "action": exec_.action.kind,
                "slot": slot,
                "member": exec_.member,
                "outcome": "aborted",
                "error": why,
            }
        )
        self._in_flight = None

    # -- reporting -------------------------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        now = self.runtime.now
        return {
            "now": round(now, 6),
            "active": self.active,
            "fenced": sorted(self._fenced),
            "spares": list(self.spares),
            "in_flight": (
                {
                    "action": self._in_flight.action.kind,
                    "state": self._in_flight.state,
                    "attempts": self._in_flight.attempts,
                }
                if self._in_flight is not None
                else None
            ),
            "stats": dict(self.stats),
            "suspicion": self.scorer.dump(now),
            "heals": list(self.heals),
        }


__all__ = [
    "HealOrchestrator",
    "ServiceFactory",
    "TICK_INTERVAL",
    "COMMIT_TIMEOUT",
    "ONBOARD_TIMEOUT",
    "RETRY_BASE",
    "RETRY_CAP",
    "MAX_RETRIES",
    "PENDING",
    "SUBMITTED",
    "COMMITTED",
    "ONBOARDING",
    "DONE",
    "ROLLED_BACK",
]
