"""The recovery planner: typed repair actions under degradation guardrails.

Given the scorer's current picture, the planner decides *what* to do
next; the orchestrator decides *how* (submission, retries, timeouts,
rollback).  Actions, strongest first:

* :class:`DrainAndReplace` — evict the replica and seat a spare in its
  slot in one epoch step; every share rotates at the barrier, so the
  evicted replica's key material is provably stale afterwards (the
  paper's mobile-adversary countermeasure applied reactively);
* :class:`Quarantine` — evict without a spare, leaving the seat vacant
  (bounded by ``t`` vacancies): the refresh-only degradation path;
* :class:`RestartReplica` — recycle the replica process in place and
  re-onboard it by certified state transfer; chosen for sustained
  *liveness* evidence with no Byzantine proof;
* :class:`RefreshShares` — rotate shares without touching the roster;
  scheduled proactively every :data:`REFRESH_INTERVAL` seconds regardless
  of suspicion, and reactively as the fallback when surgery is vetoed.

Guardrails (each veto is counted, never silent):

1. **one reconfiguration in flight** — the planner returns nothing
   while the orchestrator is executing;
2. **never drop below ``n - t`` healthy replicas** — fencing a replica
   that still counts as healthy is vetoed unless ``healthy - 1 >= n - t``
   (``heal.guardrail.vetoed``);
3. **no spare, no surgery** — replacement degrades to quarantine when a
   vacancy is admissible, else to refresh-only mode
   (``heal.fallback.refresh_only``), which still invalidates whatever
   shares an intruder may have exfiltrated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Iterable, Optional, Set, Union

from repro.obs.recorder import NULL as NULL_RECORDER
from repro.obs.recorder import Recorder


@dataclass(frozen=True)
class RefreshShares:
    kind: ClassVar[str] = "refresh"
    #: True when this refresh substitutes for a vetoed stronger action.
    fallback: bool = False


@dataclass(frozen=True)
class DrainAndReplace:
    kind: ClassVar[str] = "replace"
    slot: int = 0
    member: str = ""


@dataclass(frozen=True)
class RestartReplica:
    kind: ClassVar[str] = "restart"
    slot: int = 0


@dataclass(frozen=True)
class Quarantine:
    kind: ClassVar[str] = "quarantine"
    slot: int = 0


Action = Union[RefreshShares, DrainAndReplace, RestartReplica, Quarantine]

#: Byzantine score (equivocation, messages refused as malformed)
#: that forces eviction
REPLACE_THRESHOLD = 5.0
#: total score that forces a restart of a replica with no Byzantine
#: evidence
RESTART_THRESHOLD = 10.0
#: proactive share-refresh cadence R, in seconds
REFRESH_INTERVAL = 600.0
#: refractory period after a failed action on a slot, so the planner does
#: not re-propose surgery every tick
SLOT_COOLDOWN = 60.0
#: restarts after which a slot that crosses threshold again is replaced:
#: restarting did not cure it, so the box is compromised, not crashed
ESCALATE_AFTER = 1


@dataclass
class GroupView:
    """The orchestrator's snapshot the planner decides from."""

    n: int
    t: int
    now: float
    #: slots with a live (running, unfenced) service
    live: Set[int]
    #: live slots currently *not* under suspicion
    healthy: Set[int]
    #: decayed total score per slot
    scores: Dict[int, float]
    #: decayed Byzantine-only score per slot
    byzantine: Dict[int, float]
    #: spare replica names available for seating
    spares: int
    #: current roster vacancies (already-retired seats)
    vacancies: int
    #: time of the last committed epoch change (any kind rotates shares)
    last_refresh: float
    #: an epoch change is being executed right now
    in_flight: bool
    #: per-slot earliest time the planner may target it again
    cooldowns: Dict[int, float]
    #: completed restarts per slot (drives escalation to replacement)
    restarts: Dict[int, int]
    #: fenced slots whose roster seat is still occupied but has no live
    #: process behind it (a rolled-back restart/replace left them dark);
    #: candidates for (re-)replacement once their cooldown expires
    fenced: Set[int]


class RecoveryPlanner:
    """Pure decision logic: :meth:`plan` maps a view to at most one action."""

    def __init__(self, recorder: Optional[Recorder] = None):
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self.vetoes = 0
        self.fallbacks = 0

    # -- guardrails ------------------------------------------------------------------

    def _fence_allowed(self, view: GroupView, slot: int) -> bool:
        """Would shutting down ``slot`` leave ``>= n - t`` healthy replicas?

        A slot that is already unhealthy (suspected or dead) does not
        count toward the healthy set, so fencing it costs nothing; a
        healthy slot may only be fenced while a full quorum remains
        without it.  Either way the *live* floor holds too: the channel
        needs ``n - t`` participants to order anything at all.
        """
        floor = view.n - view.t
        healthy_after = len(view.healthy) - (1 if slot in view.healthy else 0)
        live_after = len(view.live) - (1 if slot in view.live else 0)
        return healthy_after >= floor and live_after >= floor

    def _veto(self, view: GroupView, slot: int, why: str) -> None:
        self.vetoes += 1
        if self.obs.enabled:
            self.obs.count("heal.guardrail.vetoed")
            self.obs.count(f"heal.guardrail.vetoed.{why}")

    # -- candidate selection ---------------------------------------------------------

    def _suspects(self, view: GroupView) -> Iterable[int]:
        """Live slots over threshold, worst first, cooldowns respected."""
        over = []
        for slot in view.live:
            if view.cooldowns.get(slot, 0.0) > view.now:
                continue
            byz = view.byzantine.get(slot, 0.0)
            total = view.scores.get(slot, 0.0)
            if byz >= REPLACE_THRESHOLD:
                over.append((byz + total, slot))
            elif total >= RESTART_THRESHOLD:
                over.append((total, slot))
        return [slot for _rank, slot in sorted(over, reverse=True)]

    def plan(self, view: GroupView) -> Optional[Action]:
        """The next action, or ``None`` (nothing to do / serialized out)."""
        if view.in_flight:
            return None  # guardrail 1: one epoch change at a time
        for slot in self._suspects(view):
            byzantine = (
                view.byzantine.get(slot, 0.0) >= REPLACE_THRESHOLD
                # a restart that did not cure the slot means the fault
                # survives process recycling — surgical path from here on
                or view.restarts.get(slot, 0) >= ESCALATE_AFTER
            )
            if not self._fence_allowed(view, slot):
                self._veto(view, slot, "quorum")
                if byzantine:
                    # cannot evict without losing quorum: rotate shares so
                    # whatever the intruder holds goes stale regardless.
                    self.fallbacks += 1
                    if self.obs.enabled:
                        self.obs.count("heal.fallback.refresh_only")
                        self.obs.count("heal.plan.refresh")
                    return RefreshShares(fallback=True)
                continue
            if byzantine:
                if view.spares > 0:
                    if self.obs.enabled:
                        self.obs.count("heal.plan.replace")
                    return DrainAndReplace(slot=slot)
                if view.vacancies < view.t:
                    if self.obs.enabled:
                        self.obs.count("heal.plan.quarantine")
                    return Quarantine(slot=slot)
                # guardrail 3: no spare and no admissible vacancy left —
                # refresh-only degradation.
                self.fallbacks += 1
                if self.obs.enabled:
                    self.obs.count("heal.fallback.refresh_only")
                    self.obs.count("heal.plan.refresh")
                return RefreshShares(fallback=True)
            if self.obs.enabled:
                self.obs.count("heal.plan.restart")
            return RestartReplica(slot=slot)
        # A dark slot (fenced, seat occupied, no live process — a prior
        # repair rolled back) is free to replace: it contributes nothing
        # to the healthy count, so the quorum guardrail cannot object.
        for slot in sorted(view.fenced):
            if view.cooldowns.get(slot, 0.0) > view.now:
                continue
            if view.spares > 0:
                if self.obs.enabled:
                    self.obs.count("heal.plan.replace")
                return DrainAndReplace(slot=slot)
        if view.now - view.last_refresh >= REFRESH_INTERVAL:
            if self.obs.enabled:
                self.obs.count("heal.plan.refresh")
            return RefreshShares()
        return None


__all__ = [
    "Action",
    "RefreshShares",
    "DrainAndReplace",
    "RestartReplica",
    "Quarantine",
    "GroupView",
    "RecoveryPlanner",
    "REPLACE_THRESHOLD",
    "RESTART_THRESHOLD",
    "REFRESH_INTERVAL",
    "SLOT_COOLDOWN",
    "ESCALATE_AFTER",
]
