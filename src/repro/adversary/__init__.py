"""In-process Byzantine adversaries and the liveness watchdog.

Up to ``t`` replicas run the genuine protocol stack behind an
:class:`AdversarialContext` that executes a pluggable, seeded intrusion
:class:`Strategy` — equivocation, share corruption and withholding,
justified double votes, replay, certificate forgery, selective silence,
blind structural mutation — and a :class:`LivenessWatchdog` turns stalls
into typed :class:`LivenessViolation` errors with protocol-state dumps.
This package holds the parts; :func:`repro.testing.schedule.run_case` is the
runner that puts them in a seeded case (``strategy=...``, and the
``mutate`` strategy for every ``compromise`` fault) next to schedule
chaos and crashes, and :func:`infect` is the one place a replica is put
behind a strategy.

See ``docs/ADVERSARY.md`` for the strategy catalog and the watchdog
contract, ``docs/TESTING.md`` for the CLI and the replay workflow.
"""

from repro.adversary.context import AdversarialContext, infect
from repro.adversary.strategies import STRATEGIES, Strategy, make_strategy
from repro.adversary.watchdog import (
    LivenessViolation,
    LivenessWatchdog,
    ProgressSentinel,
    sentinel_for,
)

__all__ = [
    "AdversarialContext",
    "LivenessViolation",
    "LivenessWatchdog",
    "ProgressSentinel",
    "STRATEGIES",
    "Strategy",
    "infect",
    "make_strategy",
    "sentinel_for",
]
