"""The liveness watchdog: sentinels, stall detection, FD integration.

A hang used to surface as an opaque ``SimError`` after the simulator
idled out; the watchdog's contract is that every watched stall becomes a
typed :class:`LivenessViolation` carrying a protocol-state dump, feeds
the failure detector's suspicion state, and emits ``liveness.*`` /
``fd.suspect.*`` observability counters.
"""

from __future__ import annotations

import pytest

from repro.adversary import (
    LivenessViolation,
    LivenessWatchdog,
    ProgressSentinel,
    sentinel_for,
)
from repro.core.party import make_parties
from repro.net.failure_detector import FailureDetector
from repro.net.latency import lan_latency
from repro.net.runtime import SimRuntime
from repro.obs.recorder import MemoryRecorder
from repro.testing.schedule import default_group


@pytest.fixture(scope="module")
def group4():
    return default_group(4, 1)


# -- sentinel derivation -------------------------------------------------------


class _FakeFuture:
    done = False


class _FakeAgreement:
    def __init__(self):
        self.round = 3
        self.decided = _FakeFuture()


class _FakeChannel:
    def __init__(self):
        self.delivered = 2

    def pending(self):
        return 1

    def is_closed(self):
        return False


def test_sentinel_for_agreement_like():
    obj = _FakeAgreement()
    s = sentinel_for("a", 0, obj)
    assert isinstance(s, ProgressSentinel)
    assert s.progress() == (3, False)
    assert not s.done()
    assert s.dump()["kind"] == "agreement"
    obj.round = 4
    assert s.progress() == (4, False)


def test_sentinel_for_channel_like():
    obj = _FakeChannel()
    s = sentinel_for("c", 1, obj)
    assert s.progress() == (2, 1, False)
    assert s.dump() == {"kind": "channel", "delivered": 2, "enqueued": 1, "closed": False}


def test_sentinel_for_future_fallback():
    fut = _FakeFuture()
    s = sentinel_for("f", 2, object(), future=fut)
    assert s.progress() == (False,)
    fut.done = True
    assert s.done()


def test_sentinel_for_opaque_object_requires_future():
    with pytest.raises(ValueError, match="without a future"):
        sentinel_for("x", 0, object())


# -- stall detection -----------------------------------------------------------


def _stalled_run(group, recorder=None, deadline=2.0):
    """A dead-silent agreement: one proposer, quorum never forms."""
    runtime = SimRuntime(
        group, latency=lan_latency(), seed=("stall", 1), recorder=recorder
    )
    instances = {
        p.id: p.binary_agreement("stall") for p in make_parties(runtime)
    }
    instances[0].propose(1)
    watchdog = LivenessWatchdog(deadline=deadline, recorder=recorder)
    for i, inst in instances.items():
        watchdog.watch(sentinel_for(f"aba[{i}]", i, inst))
    watchdog.attach(runtime)
    watchdog.arm()
    return runtime, instances, watchdog


def test_stall_raises_typed_violation_with_dump(group4):
    runtime, instances, _ = _stalled_run(group4)
    with pytest.raises(LivenessViolation) as exc_info:
        runtime.run_until(instances[0].decided, limit=60.0)
    violation = exc_info.value
    assert isinstance(violation, AssertionError)  # uncontainable
    assert violation.dump["stalled"], "dump must name the stalled sentinels"
    states = violation.dump["sentinels"]
    assert states["aba[1]"]["kind"] == "agreement"
    assert states["aba[1]"]["stalled_for"] >= 2.0


def test_stall_feeds_failure_detector_suspicion(group4):
    runtime, instances, watchdog = _stalled_run(group4)
    with pytest.raises(LivenessViolation) as exc_info:
        runtime.run_until(instances[0].decided, limit=60.0)
    suspects = exc_info.value.dump["suspects"]
    # silent parties drift alive -> suspect -> down on the runtime clock
    assert all(s in ("suspect", "down") for s in suspects.values())
    assert watchdog.detector is not None
    assert watchdog.stalls_detected > 0


def test_stall_emits_liveness_and_fd_counters(group4):
    recorder = MemoryRecorder()
    runtime, instances, _ = _stalled_run(group4, recorder=recorder)
    with pytest.raises(LivenessViolation):
        runtime.run_until(instances[0].decided, limit=60.0)
    counters = recorder.snapshot()["counters"]
    assert counters.get("liveness.checks", 0) >= 1
    assert counters.get("liveness.stalls", 0) >= 1
    assert counters.get("fd.suspect.entered", 0) >= 1


def test_live_run_does_not_trip_watchdog(group4):
    runtime = SimRuntime(group4, latency=lan_latency(), seed=("live", 1))
    instances = {
        p.id: p.binary_agreement("live") for p in make_parties(runtime)
    }
    watchdog = LivenessWatchdog(deadline=2.0)
    for i, inst in instances.items():
        watchdog.watch(sentinel_for(f"aba[{i}]", i, inst))
    watchdog.attach(runtime)
    watchdog.arm()
    for i, inst in instances.items():
        inst.propose(i % 2)
    for i in sorted(instances):
        value, _proof = runtime.run_until(instances[i].decided, limit=60.0)
        assert value in (0, 1)
    assert watchdog.stalls_detected == 0
    assert not watchdog.stalled()


def test_diagnose_wraps_external_symptom(group4):
    runtime, _instances, watchdog = _stalled_run(group4, deadline=1000.0)
    violation = watchdog.diagnose("simulation went idle")
    assert isinstance(violation, LivenessViolation)
    assert violation.detail == "simulation went idle"
    assert "sentinels" in violation.dump


def test_watchdog_requires_attach_before_arm():
    with pytest.raises(ValueError, match="attach"):
        LivenessWatchdog().arm()


def test_watchdog_rejects_bad_deadline():
    with pytest.raises(ValueError):
        LivenessWatchdog(deadline=0.0)


def test_violation_message_carries_stall_and_suspects():
    violation = LivenessViolation(
        "no progress", {"stalled": ["aba[2]"], "suspects": {0: "alive", 2: "down"}}
    )
    text = str(violation)
    assert "aba[2]" in text and "down" in text and "alive" not in text.split("suspects=")[1]


# -- failure-detector transition counters (satellite) --------------------------


def test_fd_transition_counters():
    recorder = MemoryRecorder()
    fd = FailureDetector([0, 1], deadline=3.0, now=0.0, recorder=recorder)
    assert fd.state(0, 0.5) == "alive"
    assert fd.state(0, 1.5) == "suspect"
    assert fd.state(0, 3.5) == "down"
    fd.touch(0, 4.0)  # progress clears the suspicion
    assert fd.state(0, 4.1) == "alive"
    counters = recorder.snapshot()["counters"]
    assert counters["fd.suspect.entered"] == 1
    assert counters["fd.down.entered"] == 1
    assert counters["fd.suspect.cleared"] == 1


def test_fd_counters_count_transitions_not_observations():
    recorder = MemoryRecorder()
    fd = FailureDetector([0], deadline=3.0, now=0.0, recorder=recorder)
    for _ in range(5):
        assert fd.state(0, 2.0) == "suspect"  # repeated observation, one entry
    counters = recorder.snapshot()["counters"]
    assert counters["fd.suspect.entered"] == 1


def test_fd_without_recorder_still_classifies():
    fd = FailureDetector([0], deadline=3.0, now=0.0)
    assert fd.state(0, 2.0) == "suspect"
    fd.touch(0, 2.5)
    assert fd.state(0, 2.6) == "alive"
