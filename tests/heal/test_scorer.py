"""Unit tests for evidence fusion: scorer decay and the router tap."""

from types import SimpleNamespace

import pytest

from repro.heal.evidence import (
    EV_EQUIVOCATION,
    EV_FD_SUSPECT,
    EV_STALL,
    HALF_LIFE,
    WEIGHTS,
    EquivocationMonitor,
    Evidence,
    SuspicionScorer,
)
from repro.obs.recorder import MemoryRecorder

pytestmark = pytest.mark.heal


# -- SuspicionScorer -------------------------------------------------------------------


def test_score_decays_with_half_life():
    scorer = SuspicionScorer()
    scorer.add(Evidence(EV_STALL, 1, at=0.0))
    w = WEIGHTS[EV_STALL]
    assert scorer.score(1, 0.0) == pytest.approx(w)
    assert scorer.score(1, HALF_LIFE) == pytest.approx(w / 2)
    assert scorer.score(1, 2 * HALF_LIFE) == pytest.approx(w / 4)


def test_sustained_evidence_accumulates_past_single_blip():
    scorer = SuspicionScorer()
    scorer.add(Evidence(EV_FD_SUSPECT, 1, at=0.0))  # one blip
    for at in range(5):
        scorer.add(Evidence(EV_FD_SUSPECT, 2, at=float(at)))
    assert scorer.score(2, 5.0) > scorer.score(1, 5.0)


def test_byzantine_score_counts_only_byzantine_kinds():
    scorer = SuspicionScorer()
    scorer.add(Evidence(EV_STALL, 1, at=0.0))
    scorer.add(Evidence(EV_EQUIVOCATION, 1, at=0.0))
    assert scorer.byzantine_score(1, 0.0) == pytest.approx(WEIGHTS[EV_EQUIVOCATION])
    assert scorer.score(1, 0.0) == pytest.approx(
        WEIGHTS[EV_STALL] + WEIGHTS[EV_EQUIVOCATION]
    )


def test_unknown_evidence_kind_is_refused():
    with pytest.raises(ValueError, match="unknown evidence kind"):
        Evidence("rumour", 1, at=0.0)


def test_clear_forgets_a_healed_party():
    scorer = SuspicionScorer()
    scorer.add(Evidence(EV_EQUIVOCATION, 1, at=0.0))
    scorer.clear(1)
    assert scorer.score(1, 0.0) == 0.0
    assert scorer.evidence_for(1) == []


def test_compact_drops_fully_decayed_evidence():
    scorer = SuspicionScorer()
    scorer.add(Evidence(EV_STALL, 1, at=0.0))
    later = 100 * HALF_LIFE  # contribution ~ 0
    scorer.compact(later)
    assert scorer.evidence_for(1) == []
    assert 1 not in scorer.scores(later)


def test_scorer_counts_evidence_by_kind():
    obs = MemoryRecorder()
    scorer = SuspicionScorer(recorder=obs)
    scorer.add(Evidence(EV_STALL, 1, at=0.0))
    scorer.add(Evidence(EV_STALL, 2, at=0.0))
    counters = obs.snapshot()["counters"]
    assert counters["heal.evidence.stall"] == 2


# -- EquivocationMonitor ---------------------------------------------------------------


def _monitor(n=4, clock=None, recorder=None):
    clock_box = clock if clock is not None else [0.0]
    sink = []
    monitor = EquivocationMonitor(
        sink.append, lambda: clock_box[0], recorder=recorder
    )
    runtime = SimpleNamespace(
        routers=[SimpleNamespace(observers=[]) for _ in range(n)]
    )
    monitor.install(runtime)
    return monitor, runtime, sink, clock_box


def test_split_broadcast_is_flagged_once_per_round():
    monitor, runtime, sink, _ = _monitor()
    payload_a = (3, 0, b"just", None, b"share")
    payload_b = (3, 1, b"just", None, b"share")
    # sender 2 shows different pre-vote payloads for round 3 to observers
    # 0 and 1 — an honest broadcast is byte-identical everywhere.
    runtime.routers[0].observers[0](2, "bin", "pre-vote", payload_a)
    runtime.routers[1].observers[0](2, "bin", "pre-vote", payload_b)
    assert [e.kind for e in sink] == [EV_EQUIVOCATION]
    assert sink[0].party == 2
    # more deliveries of the same split round do not double-count
    runtime.routers[3].observers[0](2, "bin", "pre-vote", payload_a)
    assert len(sink) == 1
    assert monitor.equivocations == 1


def test_consistent_broadcast_is_not_flagged():
    monitor, runtime, sink, _ = _monitor()
    payload = (1, 0, b"just", None, b"share")
    for i in range(4):
        runtime.routers[i].observers[0](2, "bin", "main-vote", payload)
    assert sink == []


def test_same_payload_different_rounds_is_not_equivocation():
    _, runtime, sink, _ = _monitor()
    runtime.routers[0].observers[0](2, "bin", "pre-vote", (1, 0, b"", None, b""))
    runtime.routers[1].observers[0](2, "bin", "pre-vote", (2, 1, b"", None, b""))
    assert sink == []


def test_unwatched_mtypes_feed_activity_but_not_equivocation():
    monitor, runtime, sink, clock = _monitor()
    clock[0] = 50.0
    runtime.routers[0].observers[0](2, "bin", "echo", b"x")
    runtime.routers[0].observers[0](2, "bin", "echo", b"y")
    assert sink == []
    # observer 0 heard 2 at 50 s, so it accuses the senders it did not hear
    assert monitor.silent_parties(60.0, silence_after=50.0) == [1, 3]


def test_selective_silence_is_caught_by_its_victim():
    """A sender muting one observer while staying chatty toward the rest
    (the ``silence`` strategy) starves exactly one inbox."""
    monitor, runtime, _, clock = _monitor()
    for step in range(1, 11):
        clock[0] = float(step * 10)
        for sender in range(4):
            for observer in range(4):
                if observer == sender:
                    continue
                if sender == 3 and observer == 0:
                    continue  # 3 drops everything toward 0
                runtime.routers[observer].observers[0](sender, "bin", "echo", b"x")
    assert monitor.silent_parties(clock[0], silence_after=50.0) == [3]


def test_global_quiet_accuses_nobody():
    """An idle group (epoch barrier, no traffic) is expected silence."""
    monitor, runtime, _, clock = _monitor()
    clock[0] = 10.0
    for observer in (1, 2, 3):
        runtime.routers[observer].observers[0](0, "bin", "echo", b"x")
    clock[0] = 500.0  # everyone has been quiet for ages
    assert monitor.silent_parties(clock[0], silence_after=50.0) == []


def test_forget_resets_the_evicted_slots_clocks():
    monitor, runtime, _, clock = _monitor()
    clock[0] = 100.0
    for sender in (0, 1, 2):
        for observer in range(4):
            if observer != sender:
                runtime.routers[observer].observers[0](sender, "bin", "echo", b"x")
    assert monitor.silent_parties(100.0, silence_after=50.0) == [3]
    monitor.forget(3)  # slot healed: the successor starts fresh
    assert monitor.silent_parties(100.0, silence_after=50.0) == []


def test_equivocation_counter_is_recorded():
    obs = MemoryRecorder()
    _, runtime, _, _ = _monitor(recorder=obs)
    runtime.routers[0].observers[0](2, "bin", "decide", (0, 0, b"a", None))
    runtime.routers[1].observers[0](2, "bin", "decide", (0, 1, b"b", None))
    assert obs.snapshot()["counters"]["heal.equivocation.observed"] == 1
