"""Liveness watchdog: typed stall detection for protocol runs.

The paper's liveness claim — every honest party eventually decides and
delivers — used to be testable only negatively: a violating schedule made
the test *hang* until the simulator ran out of events or simulated time,
and the failure surfaced as an opaque ``SimError``.  This module turns
that failure mode into a first-class, typed :class:`LivenessViolation`
carrying a protocol-state dump.

The mechanism is a set of **progress sentinels**, one per watched protocol
instance.  A sentinel reduces the instance to a monotone *progress
fingerprint* — for agreement: ``(round entered, decided)``; for channels:
``(slots delivered, enqueued backlog drained, closed)`` — and the
:class:`LivenessWatchdog` polls all fingerprints after every delivery.
Deadlines run on the runtime's own clock (simulated seconds under
:class:`~repro.net.runtime.SimRuntime`), so detection is deterministic and
seed-reproducible like everything else in the harness.

Stalled parties feed a :class:`~repro.net.failure_detector.FailureDetector`
instance: a sentinel's progress events ``touch`` its party, so a party
whose instances stop contributing drifts ``alive -> suspect -> down``,
and the ``fd.suspect.entered`` / ``fd.suspect.cleared`` transition
counters show detection latency in exported BENCH records.

Beyond the original raise-on-stall test harness mode, the watchdog is
also the stall *sensor* of the recovery orchestrator (:mod:`repro.heal`):

* ``raise_on_stall=False`` turns detection into reporting — a stall
  episode invokes the registered ``stall_listeners`` once instead of
  aborting the run, and the deadline timer keeps re-arming until
  :meth:`disarm`;
* failure-detector transitions are exported through
  ``transition_listeners`` (the :meth:`~repro.net.failure_detector.
  FailureDetector.on_transition` callback path, not polling);
* :meth:`suspend` / :meth:`resume` bracket windows where *no* progress is
  expected by design — a membership epoch barrier freezes the channel on
  every honest replica, which must not read as a liveness stall.  Resume
  reseeds every sentinel's stall age.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.failure_detector import FailureDetector
from repro.obs.recorder import NULL as NULL_RECORDER
from repro.obs.recorder import Recorder


class LivenessViolation(AssertionError):
    """A watched protocol run stopped making progress before termination.

    Derives from :class:`AssertionError` (like
    :class:`~repro.testing.invariants.InvariantViolation`) so no error
    containment layer can swallow it.  ``dump`` is the watchdog's
    protocol-state snapshot at detection time: per-sentinel progress
    fingerprints, stall ages, and the failure detector's suspicion map.
    """

    def __init__(self, detail: str, dump: Optional[Dict[str, Any]] = None):
        self.detail = detail
        self.dump: Dict[str, Any] = dump or {}
        text = detail
        if dump:
            stalled = dump.get("stalled") or []
            if stalled:
                text += f" stalled={stalled}"
            suspects = dump.get("suspects") or {}
            bad = {p: s for p, s in suspects.items() if s != "alive"}
            if bad:
                text += f" suspects={bad}"
        super().__init__(text)


class ProgressSentinel:
    """One watched instance, reduced to a monotone progress fingerprint."""

    def __init__(
        self,
        name: str,
        party: int,
        progress: Callable[[], Tuple],
        done: Callable[[], bool],
        dump: Callable[[], Dict[str, Any]],
    ):
        self.name = name
        self.party = party
        self.progress = progress
        self.done = done
        self.dump = dump
        self.last_fingerprint: Optional[Tuple] = None
        self.last_change = 0.0

    def state(self, now: float) -> Dict[str, Any]:
        info = dict(self.dump())
        info["done"] = self.done()
        info["stalled_for"] = round(now - self.last_change, 6)
        return info


def sentinel_for(name: str, party: int, obj: Any, future: Any = None) -> ProgressSentinel:
    """Build a sentinel for a protocol instance by duck-typing its surface.

    * service-like (``applied_seq``) — progress is the applied sequence
      number plus the *current* channel's delivery/backlog state; the
      channel is re-read on every poll because membership reconfiguration
      swaps it at each epoch transition;
    * agreement-like (``round`` + ``decided``) — progress is the round
      counter and the decision flag (paper: rounds entered vs. decided);
    * channel-like (a ``delivered`` count) — progress is payloads
      delivered, the send-backlog level and the closed flag (slots
      delivered vs. enqueued);
    * anything else — the supplied ``future``'s resolution is the only
      observable progress.
    """
    if hasattr(obj, "applied_seq"):
        def svc_channel() -> Any:
            return getattr(obj, "channel", None)

        def svc_progress() -> Tuple:
            ch = svc_channel()
            if ch is None:
                return (obj.applied_seq, 0, 0, True)
            return (
                obj.applied_seq,
                ch.delivered,
                ch.pending(),
                getattr(obj, "membership_epoch", 0),
                bool(ch.is_closed()),
            )

        def svc_done() -> bool:
            ch = svc_channel()
            return ch is None or bool(ch.is_closed())

        def svc_dump() -> Dict[str, Any]:
            ch = svc_channel()
            info: Dict[str, Any] = {
                "kind": "service",
                "applied_seq": obj.applied_seq,
                "epoch": getattr(obj, "membership_epoch", 0),
            }
            if ch is not None:
                info["delivered"] = ch.delivered
                info["enqueued"] = ch.pending()
                info["closed"] = bool(ch.is_closed())
            return info

        return ProgressSentinel(name, party, svc_progress, svc_done, svc_dump)
    if hasattr(obj, "decided"):
        def rounds() -> int:
            # binary agreement counts ``round``; multi-valued agreement
            # counts candidate iterations as ``rounds_used``.
            return getattr(obj, "round", None) or getattr(obj, "rounds_used", 0)

        def progress() -> Tuple:
            return (rounds(), obj.decided.done)

        def done() -> bool:
            return bool(obj.decided.done)

        def dump() -> Dict[str, Any]:
            return {
                "kind": "agreement",
                "round": rounds(),
                "decided": bool(obj.decided.done),
            }

        return ProgressSentinel(name, party, progress, done, dump)
    if isinstance(getattr(obj, "delivered", None), int):
        def progress() -> Tuple:
            return (obj.delivered, obj.pending(), obj.is_closed())

        def done() -> bool:
            return bool(obj.is_closed())

        def dump() -> Dict[str, Any]:
            info: Dict[str, Any] = {
                "kind": "channel",
                "delivered": obj.delivered,
                "enqueued": obj.pending(),
                "closed": bool(obj.is_closed()),
            }
            if hasattr(obj, "round"):
                info["round"] = obj.round
            return info

        return ProgressSentinel(name, party, progress, done, dump)
    if future is None:
        raise ValueError(f"cannot derive a sentinel for {obj!r} without a future")

    def fut_progress() -> Tuple:
        return (bool(future.done),)

    def fut_done() -> bool:
        return bool(future.done)

    def fut_dump() -> Dict[str, Any]:
        return {"kind": "future", "resolved": bool(future.done)}

    return ProgressSentinel(name, party, fut_progress, fut_done, fut_dump)


class LivenessWatchdog:
    """Deadline-driven stall detection over a set of progress sentinels.

    ``deadline`` is the maximum time (on the runtime clock) any unfinished
    sentinel may go without a fingerprint change before the run is
    declared stalled.  :meth:`attach` hooks the cheap per-delivery poll
    into the runtime; :meth:`arm` schedules the recurring deadline check
    that raises :class:`LivenessViolation` — so a dead-silent run (no
    deliveries at all) is detected too, *before* the simulator idles out.

    With ``raise_on_stall=False`` the deadline check *reports* instead:
    each stall episode fires the ``stall_listeners`` once (re-firing only
    after the sentinel makes progress again and re-stalls), and the timer
    keeps re-arming until :meth:`disarm` — the mode the recovery
    orchestrator runs in, where a stall is evidence to act on rather than
    a test failure.
    """

    def __init__(
        self,
        deadline: float = 30.0,
        recorder: Optional[Recorder] = None,
        raise_on_stall: bool = True,
    ):
        if deadline <= 0:
            raise ValueError("watchdog deadline must be positive")
        self.deadline = deadline
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self.raise_on_stall = raise_on_stall
        self.sentinels: List[ProgressSentinel] = []
        self.detector: Optional[FailureDetector] = None
        #: ``callback(sentinel, stalled_for)`` per newly observed stall episode.
        self.stall_listeners: List[Callable[[ProgressSentinel, float], None]] = []
        #: ``callback(peer, old, new)`` forwarded from the failure detector.
        self.transition_listeners: List[Callable[[int, str, str], None]] = []
        self._clock: Callable[[], float] = lambda: 0.0
        self._runtime: Any = None
        self._suspended = 0
        self._reported: Dict[str, Tuple] = {}
        self.active = False
        self.polls = 0
        self.stalls_detected = 0

    def watch(self, sentinel: ProgressSentinel) -> "LivenessWatchdog":
        self.sentinels.append(sentinel)
        if self._runtime is not None:
            # late addition (e.g. a replacement replica onboarded mid-run):
            # seed its stall age now and start estimating its party.
            now = self._clock()
            sentinel.last_fingerprint = sentinel.progress()
            sentinel.last_change = now
            if self.detector is not None:
                self.detector.add_peer(sentinel.party, now)
        return self

    def unwatch(self, name: str) -> None:
        """Drop sentinels by name (e.g. after their replica was evicted)."""
        self.sentinels = [s for s in self.sentinels if s.name != name]
        self._reported.pop(name, None)

    def attach(self, runtime: Any) -> "LivenessWatchdog":
        """Bind clocks, seed fingerprints, register the per-delivery poll."""
        self._runtime = runtime
        self._clock = lambda: runtime.now
        now = self._clock()
        parties = sorted({s.party for s in self.sentinels})
        if parties:
            self.detector = FailureDetector(
                parties, self.deadline, now=now, recorder=self.obs
            )
        if self.detector is not None:
            self.detector.on_transition(self._on_fd_transition)
        for s in self.sentinels:
            s.last_fingerprint = s.progress()
            s.last_change = now
        runtime.delivery_listeners.append(self._on_delivery)
        return self

    def _on_fd_transition(self, peer: int, old: str, new: str) -> None:
        for callback in self.transition_listeners:
            callback(peer, old, new)

    # -- polling -----------------------------------------------------------------

    def _on_delivery(self, dst: int) -> None:
        self.poll()

    def poll(self) -> None:
        """Refresh fingerprints; record progress with the failure detector."""
        self.polls += 1
        now = self._clock()
        for s in self.sentinels:
            fp = s.progress()
            if fp != s.last_fingerprint:
                s.last_fingerprint = fp
                s.last_change = now
                if self.detector is not None:
                    self.detector.touch(s.party, now)
                if self.obs.enabled:
                    self.obs.count("liveness.progress")
        if self.detector is not None and not self._suspended:
            self.detector.states(now)  # roll suspicion transitions forward

    # -- barrier suspension ------------------------------------------------------

    def suspend(self) -> None:
        """Enter a window where silence is expected (epoch barrier freeze).

        While suspended, :meth:`stalled` reports nothing and the deadline
        check is a no-op — a membership reconfiguration legitimately stops
        all delivery progress between the barrier slot and the epoch
        transition, and that pause must not read as a liveness stall.
        Nestable; pair every call with :meth:`resume`.
        """
        self._suspended += 1
        if self.obs.enabled:
            self.obs.count("liveness.barrier.suspends")

    def resume(self) -> None:
        """Leave the expected-silence window; restart every stall clock."""
        if self._suspended == 0:
            raise ValueError("resume() without matching suspend()")
        self._suspended -= 1
        if self._suspended == 0:
            now = self._clock()
            for s in self.sentinels:
                s.last_fingerprint = s.progress()
                s.last_change = now
                if self.detector is not None:
                    self.detector.touch(s.party, now)

    @property
    def suspended(self) -> bool:
        return self._suspended > 0

    # -- stall detection ---------------------------------------------------------

    def stalled(self) -> List[ProgressSentinel]:
        """Unfinished sentinels past the deadline, oldest stall first."""
        self.poll()
        if self._suspended:
            return []
        now = self._clock()
        out = [
            s
            for s in self.sentinels
            if not s.done() and now - s.last_change >= self.deadline
        ]
        return sorted(out, key=lambda s: s.last_change)

    def dump(self) -> Dict[str, Any]:
        """The protocol-state snapshot embedded in violations."""
        now = self._clock()
        suspects = self.detector.states(now) if self.detector is not None else {}
        return {
            "now": round(now, 6),
            "deadline": self.deadline,
            "stalled": [
                s.name
                for s in self.sentinels
                if not s.done() and now - s.last_change >= self.deadline
            ],
            "suspects": suspects,
            "sentinels": {s.name: s.state(now) for s in self.sentinels},
        }

    def check(self) -> None:
        """Raise :class:`LivenessViolation` if any sentinel is stalled."""
        stalled = self.stalled()
        if not stalled:
            return
        self.stalls_detected += len(stalled)
        if self.obs.enabled:
            self.obs.count("liveness.stalls", len(stalled))
        names = ", ".join(s.name for s in stalled)
        raise LivenessViolation(
            f"no progress for {self.deadline}s at: {names}", self.dump()
        )

    def diagnose(self, reason: str) -> LivenessViolation:
        """Wrap an external liveness symptom (e.g. simulator idle/timeout).

        Used when the run dies before a deadline check fires — the
        violation still carries the full protocol-state dump.
        """
        self.poll()
        self.stalls_detected += 1
        if self.obs.enabled:
            self.obs.count("liveness.stalls")
        return LivenessViolation(reason, self.dump())

    # -- the deadline timer ------------------------------------------------------

    def arm(self) -> None:
        """Schedule the recurring deadline check on the attached runtime.

        The check re-arms itself while any sentinel is unfinished, so the
        simulator always has a future event pending up to the moment the
        watchdog either declares the run live (all done) or raises.  The
        raise propagates out of ``run_until`` to the harness.

        In report mode (``raise_on_stall=False``) stalls fire the
        ``stall_listeners`` instead and the timer re-arms until
        :meth:`disarm` — callers must disarm before letting the simulator
        idle out, or the pending check keeps the run alive forever.
        """
        if self._runtime is None:
            raise ValueError("attach() the watchdog to a runtime before arm()")
        self.active = True
        self._schedule_check()

    def disarm(self) -> None:
        """Stop the recurring deadline check after the next firing."""
        self.active = False

    def _schedule_check(self) -> None:
        self._runtime.sim.schedule(self.deadline, self._deadline_check)

    def _deadline_check(self) -> None:
        if not self.active:
            return
        if self.obs.enabled:
            self.obs.count("liveness.checks")
        if self.raise_on_stall:
            self.check()  # raises on stall
            if any(not s.done() for s in self.sentinels):
                self._schedule_check()
            else:
                self.active = False
            return
        self._report_stalls()
        self._schedule_check()

    def _report_stalls(self) -> None:
        """Fire ``stall_listeners`` once per stall episode (report mode).

        A sentinel that keeps stalling on the same fingerprint is reported
        once; it becomes reportable again only after making progress.
        """
        now = self._clock()
        for s in self.stalled():
            fp = s.last_fingerprint
            if self._reported.get(s.name) == fp and fp is not None:
                continue
            self._reported[s.name] = fp if fp is not None else ()
            self.stalls_detected += 1
            if self.obs.enabled:
                self.obs.count("liveness.stalls")
            stalled_for = now - s.last_change
            for callback in self.stall_listeners:
                callback(s, stalled_for)
