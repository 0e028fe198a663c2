"""Per-party liveness estimation for the liveness watchdog.

SINTRA's asynchronous protocols never *need* a failure detector — that
is the point of the randomized protocol stack — but the recovery
orchestrator needs evidence of which replicas stopped contributing.
This module is the sans-I/O core: a clock-driven state estimator fed by
*progress events* that classifies every party as ``alive``, ``suspect``
or ``down``.  Its one owner is
:class:`~repro.adversary.watchdog.LivenessWatchdog`, whose sentinels
``touch`` a party whenever one of its watched instances moves; the
transitions become :mod:`repro.heal`'s ``fd-suspect`` / ``fd-down``
evidence.

The estimator is deliberately crude (timeouts fixed by the watchdog's
deadline, no adaptive RTT estimation a la Chen/Toueg): under asynchrony
any detector is unreliable, and nothing in the protocol stack trusts it.

State machine (ages are ``now - last progress``)::

    ALIVE --(age >= deadline / 2)--> SUSPECT --(age >= deadline)--> DOWN
      ^                                  |                              |
      +-------- progress event ----------+------------------------------+

Progress events always restore ``alive``; the transitions are therefore a
pure function of the last-progress timestamp, which keeps the detector
trivially checkable in unit tests with a synthetic clock.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.common.errors import ConfigError
from repro.obs.recorder import NULL as NULL_RECORDER
from repro.obs.recorder import Recorder

ALIVE = "alive"
SUSPECT = "suspect"
DOWN = "down"


class FailureDetector:
    """Progress-driven ``alive / suspect / down`` classification.

    A peer is suspected after half of ``deadline`` seconds without
    progress and marked down after the full ``deadline``; the clock is
    whatever the caller passes as ``now`` (the runtime clock under the
    watchdog, a synthetic float in tests).

    When a ``recorder`` is given, suspicion *transitions* are surfaced as
    counters — ``fd.suspect.entered`` / ``fd.suspect.cleared`` (and
    ``fd.down.entered`` for the terminal step) — so exported BENCH records
    show how often and how fast silence was detected.  States are a pure
    function of the last-progress timestamps, so transitions are noted at
    observation time: whenever :meth:`state`, :meth:`states` or
    :meth:`touch` recomputes a peer's classification.

    Consumers that need to *react* to a classification change register a
    callback with :meth:`on_transition` and receive ``(peer, old, new)``
    the first time the change is observed.  This is the supported signal
    path for the recovery orchestrator (:mod:`repro.heal`); polling
    :meth:`states` for edge detection races the estimator and
    double-counts transitions.
    """

    def __init__(
        self,
        peers: Iterable[int],
        deadline: float,
        now: float = 0.0,
        recorder: Optional[Recorder] = None,
    ):
        if deadline <= 0:
            raise ConfigError("the failure detector needs a positive deadline")
        self.deadline = deadline
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self._last: Dict[int, float] = {peer: now for peer in peers}
        self._noted: Dict[int, str] = {peer: ALIVE for peer in self._last}
        self._listeners: List[Callable[[int, str, str], None]] = []

    def on_transition(self, callback: Callable[[int, str, str], None]) -> None:
        """Register ``callback(peer, old, new)`` for state transitions.

        Invoked the first time a classification change is observed (the
        same edge the ``fd.*`` counters record), in registration order.
        Callbacks run inline with whatever call noticed the edge
        (:meth:`touch`, :meth:`state`, :meth:`states`), so they must be
        cheap and must not re-enter the detector.
        """
        self._listeners.append(callback)

    def add_peer(self, peer: int, now: float) -> None:
        """Start estimating a peer that joined after construction (e.g. a
        replacement replica onboarded mid-run).  No-op if already known."""
        if peer in self._last:
            return
        self._last[peer] = now
        self._noted[peer] = ALIVE

    def touch(self, peer: int, now: float) -> None:
        """Record a progress event from ``peer`` (monotone: never rewinds)."""
        if peer not in self._last:
            raise ConfigError(f"unknown peer {peer}")
        if now > self._last[peer]:
            self._last[peer] = now
        self._note(peer, self.state(peer, now))

    def state(self, peer: int, now: float) -> str:
        age = now - self._last[peer]
        if age >= self.deadline:
            state = DOWN
        elif age >= self.deadline / 2.0:
            state = SUSPECT
        else:
            state = ALIVE
        self._note(peer, state)
        return state

    def _note(self, peer: int, state: str) -> None:
        """Count a suspicion transition the first time it is observed."""
        previous = self._noted[peer]
        if state == previous:
            return
        self._noted[peer] = state
        if self.obs.enabled:
            if previous == ALIVE and state in (SUSPECT, DOWN):
                self.obs.count("fd.suspect.entered")
            if state == DOWN:
                self.obs.count("fd.down.entered")
            if state == ALIVE:
                self.obs.count("fd.suspect.cleared")
        for callback in self._listeners:
            callback(peer, previous, state)

    def states(self, now: float) -> Dict[int, str]:
        return {peer: self.state(peer, now) for peer in self._last}
