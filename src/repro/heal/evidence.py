"""Evidence fusion for intrusion recovery: who is misbehaving, how badly?

The orchestrator never acts on a single signal.  SINTRA's failure
detector is *unreliable by design* (under asynchrony it must be), a
liveness stall can be an innocent network hiccup, and even a rejected
share can be a replay artifact — but a replica that keeps producing such
evidence is either compromised or broken, and either way it is a
candidate for surgery.  This module turns the heterogeneous evidence
streams into one comparable quantity per replica:

* :class:`Evidence` — a typed observation (``kind``, accused ``party``,
  timestamp), weighted by its kind alone (:data:`WEIGHTS`);
* :class:`SuspicionScorer` — fuses evidence into a per-replica score
  with exponential :data:`HALF_LIFE` decay, so one flaky link fades away while
  sustained Byzantine behaviour accumulates past the planner's
  thresholds.  Byzantine evidence (equivocation, messages a router
  refused as malformed) is tracked separately from liveness evidence (failure
  detector transitions, watchdog stalls): the planner replaces proven
  intruders but merely restarts replicas that just stopped making
  progress;
* :class:`EquivocationMonitor` — the router tap.  An honest broadcast
  delivers byte-identical payloads to every replica; a split vote (the
  ``doublevote`` strategy) necessarily shows *different* payloads for
  the same ``(sender, pid, mtype, round)`` key at different observers.
  Comparing digests across all routers turns equivocation — the paper's
  canonical Byzantine act — into attributable evidence.  The same tap
  tracks per-sender last-activity, giving the orchestrator a silence
  signal that works even while the group as a whole keeps progressing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.obs.recorder import NULL as NULL_RECORDER
from repro.obs.recorder import Recorder

EV_FD_SUSPECT = "fd-suspect"
EV_FD_DOWN = "fd-down"
EV_STALL = "stall"
EV_SILENCE = "silence"
EV_BAD_CERT = "bad-cert"
EV_EQUIVOCATION = "equivocation"

#: evidence kinds that indicate *Byzantine* behaviour (attributable
#: protocol violations) rather than mere unresponsiveness.
BYZANTINE_KINDS = frozenset({EV_BAD_CERT, EV_EQUIVOCATION})

#: weight per observation, by kind; a kind not listed here is refused.
#: Equivocation is close to a cryptographic proof of compromise and
#: lands above any sane replace threshold in two observations;
#: failure-detector suspicion is cheap noise that needs corroboration or
#: persistence.
WEIGHTS: Dict[str, float] = {
    EV_FD_SUSPECT: 1.0,
    EV_FD_DOWN: 3.0,
    EV_STALL: 2.0,
    EV_SILENCE: 2.0,
    EV_BAD_CERT: 2.5,
    EV_EQUIVOCATION: 6.0,
}

#: seconds after which an observation counts half
HALF_LIFE = 60.0


@dataclass(frozen=True)
class Evidence:
    """One observation accusing ``party``, weighted by ``kind``."""

    kind: str
    party: int
    at: float
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in WEIGHTS:
            raise ValueError(f"unknown evidence kind {self.kind!r}")

    @property
    def byzantine(self) -> bool:
        return self.kind in BYZANTINE_KINDS


class SuspicionScorer:
    """Per-replica health scoring with exponential half-life decay.

    Each piece of evidence contributes ``WEIGHTS[kind] * 0.5 ** (age / HALF_LIFE)``
    to its party's score at query time — an isolated failure-detector
    blip decays to irrelevance within a few half-lives, while a replica
    under active intrusion keeps its score pinned above threshold.
    :meth:`clear` forgets a party's history after it has been healed
    (replaced, restarted) so the successor starts with a clean slate.
    """

    def __init__(self, recorder: Optional[Recorder] = None):
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self._evidence: Dict[int, List[Evidence]] = {}

    def add(self, evidence: Evidence) -> None:
        self._evidence.setdefault(evidence.party, []).append(evidence)
        if self.obs.enabled:
            self.obs.count(f"heal.evidence.{evidence.kind}")

    def evidence_for(self, party: int) -> List[Evidence]:
        return list(self._evidence.get(party, []))

    def _decayed(self, evidence: Evidence, now: float) -> float:
        age = max(0.0, now - evidence.at)
        return WEIGHTS[evidence.kind] * 0.5 ** (age / HALF_LIFE)

    def score(self, party: int, now: float) -> float:
        return sum(self._decayed(e, now) for e in self._evidence.get(party, []))

    def byzantine_score(self, party: int, now: float) -> float:
        return sum(
            self._decayed(e, now)
            for e in self._evidence.get(party, [])
            if e.byzantine
        )

    def scores(self, now: float) -> Dict[int, float]:
        return {party: self.score(party, now) for party in self._evidence}

    def clear(self, party: int) -> None:
        """Forget a party's evidence (after the slot has been healed)."""
        self._evidence.pop(party, None)

    def compact(self, now: float, floor: float = 1e-3) -> None:
        """Drop evidence whose decayed contribution fell below ``floor``."""
        for party in list(self._evidence):
            kept = [
                e for e in self._evidence[party] if self._decayed(e, now) >= floor
            ]
            if kept:
                self._evidence[party] = kept
            else:
                del self._evidence[party]

    def dump(self, now: float) -> Dict[str, Any]:
        return {
            str(party): {
                "score": round(self.score(party, now), 4),
                "byzantine": round(self.byzantine_score(party, now), 4),
                "kinds": sorted({e.kind for e in items}),
            }
            for party, items in self._evidence.items()
        }


def _payload_digest(payload: Any) -> str:
    """A stable digest of a broadcast payload for cross-observer
    comparison.  ``repr`` is deterministic for the tuple/int/bytes
    payloads the vote messages carry; this is an evidence heuristic, not
    a cryptographic commitment."""
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:24]


def _payload_round(payload: Any) -> int:
    if isinstance(payload, tuple) and payload and isinstance(payload[0], int):
        return payload[0]
    return 0


class EquivocationMonitor:
    """Cross-replica router tap detecting split broadcasts and silence.

    One observer callback is installed per router (:meth:`install`).
    For each watched broadcast message type, the payload digest seen by
    each observing party is recorded under ``(sender, pid, mtype,
    round)``; the moment two observers hold *different* digests for the
    same key, the sender provably equivocated and an
    :data:`EV_EQUIVOCATION` evidence is emitted to the sink — once per
    key, so a sustained double-vote campaign scores per round, not per
    delivery.

    The tap also keeps a per-*pair* last-activity clock over all message
    types: when did observer ``o`` last hear anything from sender ``s``?
    :meth:`silent_parties` reports senders that have starved at least
    one observer for longer than a threshold while that same observer
    kept hearing from everyone else.  The asymmetry matters: a replica
    running *selective* silence (the ``silence`` strategy mutes only a
    targeted honest minority, staying chatty toward the rest) is
    invisible to any global activity clock, but its victims' inboxes
    show the hole immediately.  An observer whose whole inbox is stale
    votes for nobody — global quiet (an epoch barrier, an idle group) is
    expected silence, not evidence.
    """

    #: broadcast message types where honest senders are value-consistent.
    WATCHED_MTYPES = frozenset({"pre-vote", "main-vote", "decide"})

    def __init__(
        self,
        sink: Callable[[Evidence], None],
        clock: Callable[[], float],
        recorder: Optional[Recorder] = None,
    ):
        self.sink = sink
        self.clock = clock
        self.obs = recorder if recorder is not None else NULL_RECORDER
        #: key -> digest -> observer parties that saw it
        self._seen: Dict[Tuple[int, str, str, int], Dict[str, Set[int]]] = {}
        self._flagged: Set[Tuple[int, str, str, int]] = set()
        #: observer -> sender -> last time the observer heard the sender
        self._heard: Dict[int, Dict[int, float]] = {}
        self.equivocations = 0

    def install(self, runtime: Any) -> None:
        """Register one observer on every router."""
        parties = range(len(runtime.routers))
        now = self.clock()
        for i in parties:
            runtime.routers[i].observers.append(self.observer_for(i))
            inbox = self._heard.setdefault(i, {})
            for j in parties:
                if j != i:
                    inbox.setdefault(j, now)

    def observer_for(self, observer: int) -> Callable[[int, str, str, Any], None]:
        def observe(sender: int, pid: str, mtype: str, payload: Any) -> None:
            self._observe(observer, sender, pid, mtype, payload)

        return observe

    def _observe(
        self, observer: int, sender: int, pid: str, mtype: str, payload: Any
    ) -> None:
        now = self.clock()
        if sender != observer:
            inbox = self._heard.setdefault(observer, {})
            if now > inbox.get(sender, -1.0):
                inbox[sender] = now
        if mtype not in self.WATCHED_MTYPES:
            return
        key = (sender, pid, mtype, _payload_round(payload))
        if key in self._flagged:
            return
        digests = self._seen.setdefault(key, {})
        digests.setdefault(_payload_digest(payload), set()).add(observer)
        if len(digests) > 1:
            self._flagged.add(key)
            self.equivocations += 1
            if self.obs.enabled:
                self.obs.count("heal.equivocation.observed")
            self.sink(
                Evidence(
                    EV_EQUIVOCATION,
                    sender,
                    now,
                    detail=f"split {mtype} r{key[3]} on {pid}",
                )
            )

    def silent_parties(self, now: float, silence_after: float) -> List[int]:
        """Senders that starved at least one *otherwise-fresh* observer.

        A sender is reported when some observer has not heard from it
        for ``silence_after`` even though that observer heard from a
        different sender within the window — so selective silence is
        caught by its victims, while a globally quiet period (barrier,
        idle group) produces no accusations at all.
        """
        accused: Set[int] = set()
        for observer, inbox in self._heard.items():
            if not inbox:
                continue
            if now - max(inbox.values()) >= silence_after:
                continue  # this inbox is globally stale — expected quiet
            accused.update(
                sender
                for sender, last in inbox.items()
                if now - last >= silence_after
            )
        return sorted(accused)

    def forget(self, party: int) -> None:
        """Reset a party's activity clocks (evicted/replaced slot)."""
        now = self.clock()
        for inbox in self._heard.values():
            if party in inbox:
                inbox[party] = now
        if party in self._heard:
            self._heard[party] = {
                sender: now for sender in self._heard[party]
            }


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
    "WEIGHTS",
    "HALF_LIFE",
]
