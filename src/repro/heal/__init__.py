"""Self-healing replication: the automated intrusion-recovery orchestrator.

Closes the loop the paper leaves to the operator: evidence of intrusion
or failure (failure detector, liveness watchdog, protocol anomalies,
equivocation at the router tap) is fused into per-replica suspicion
scores, a guardrailed planner chooses typed repair actions, and the
orchestrator executes them through epoch reconfiguration — refresh,
drain-and-replace, restart, quarantine — with retries, timeouts and
rollback.

The loop runs one policy, stated as module constants where it is used:
the evidence weights and half-life in :mod:`repro.heal.evidence`, the
thresholds, refresh cadence and cooldown in :mod:`repro.heal.planner`,
the tick, timeouts and retry backoff in :mod:`repro.heal.orchestrator`.
The silence threshold is four deadlines of the orchestrator's watchdog.
See docs/SELFHEALING.md.
"""

from repro.heal.evidence import (
    BYZANTINE_KINDS,
    EV_BAD_CERT,
    EV_EQUIVOCATION,
    EV_FD_DOWN,
    EV_FD_SUSPECT,
    EV_SILENCE,
    EV_STALL,
    EquivocationMonitor,
    Evidence,
    SuspicionScorer,
)
from repro.heal.orchestrator import (
    HealOrchestrator,
    ServiceFactory,
)
from repro.heal.planner import (
    Action,
    DrainAndReplace,
    GroupView,
    Quarantine,
    RecoveryPlanner,
    RefreshShares,
    RestartReplica,
)
from repro.heal.scenario import (
    CounterMachine,
    HealScenario,
    stale_share_rejected,
)

__all__ = [
    "Evidence",
    "SuspicionScorer",
    "EquivocationMonitor",
    "EV_FD_SUSPECT",
    "EV_FD_DOWN",
    "EV_STALL",
    "EV_SILENCE",
    "EV_BAD_CERT",
    "EV_EQUIVOCATION",
    "BYZANTINE_KINDS",
    "Action",
    "RefreshShares",
    "DrainAndReplace",
    "RestartReplica",
    "Quarantine",
    "GroupView",
    "RecoveryPlanner",
    "HealOrchestrator",
    "ServiceFactory",
    "CounterMachine",
    "HealScenario",
    "stale_share_rejected",
]
