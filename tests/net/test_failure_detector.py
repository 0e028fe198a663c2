"""Failure-detector state transitions under a synthetic clock."""

import pytest

from repro.common.errors import ConfigError
from repro.net.failure_detector import ALIVE, DOWN, SUSPECT, FailureDetector


def _fd():
    return FailureDetector([1, 2, 3], deadline=2.0, now=0.0)


def test_initial_state_is_alive():
    fd = _fd()
    assert fd.states(0.0) == {1: ALIVE, 2: ALIVE, 3: ALIVE}


def test_alive_suspect_down_progression():
    fd = _fd()
    assert fd.state(1, 0.5) == ALIVE
    assert fd.state(1, 1.0) == SUSPECT  # boundary: age >= deadline / 2
    assert fd.state(1, 1.9) == SUSPECT
    assert fd.state(1, 2.0) == DOWN  # boundary: age >= deadline
    assert fd.state(1, 100.0) == DOWN


def test_progress_restores_alive_from_any_state():
    fd = _fd()
    assert fd.state(1, 5.0) == DOWN
    fd.touch(1, 5.0)
    assert fd.state(1, 5.0) == ALIVE
    assert fd.state(1, 5.9) == ALIVE
    assert fd.state(1, 6.0) == SUSPECT


def test_touch_is_monotone():
    fd = _fd()
    fd.touch(1, 10.0)
    fd.touch(1, 4.0)  # stale event must not rewind liveness
    assert fd.state(1, 10.5) == ALIVE
    assert fd.state(1, 11.0) == SUSPECT


def test_per_peer_independence():
    fd = _fd()
    fd.touch(2, 2.5)
    assert fd.states(3.0) == {1: DOWN, 2: ALIVE, 3: DOWN}


def test_unknown_peer_rejected():
    fd = _fd()
    with pytest.raises(ConfigError):
        fd.touch(9, 1.0)


def test_parameter_validation():
    with pytest.raises(ConfigError):
        FailureDetector([1], deadline=0.0)
    with pytest.raises(ConfigError):
        FailureDetector([1], deadline=-1.0)


# -- transition callbacks (the supported edge-detection path) --------------------------


def _edges(fd):
    seen = []
    fd.on_transition(lambda peer, old, new: seen.append((peer, old, new)))
    return seen


def test_on_transition_fires_once_per_edge():
    fd = _fd()
    seen = _edges(fd)
    fd.states(1.5)  # everyone crosses into suspect
    fd.states(1.6)  # observed again: same classification, no new edge
    assert sorted(seen) == [
        (1, ALIVE, SUSPECT),
        (2, ALIVE, SUSPECT),
        (3, ALIVE, SUSPECT),
    ]


def test_on_transition_sees_full_lifecycle():
    fd = _fd()
    seen = _edges(fd)
    fd.state(1, 1.5)
    fd.state(1, 3.5)
    fd.touch(1, 4.0)
    assert seen == [
        (1, ALIVE, SUSPECT),
        (1, SUSPECT, DOWN),
        (1, DOWN, ALIVE),
    ]


def test_on_transition_multiple_listeners_in_order():
    fd = _fd()
    order = []
    fd.on_transition(lambda *a: order.append(("first", a)))
    fd.on_transition(lambda *a: order.append(("second", a)))
    fd.state(1, 2.0)
    assert [tag for tag, _ in order] == ["first", "second"]


def test_add_peer_starts_alive_and_is_idempotent():
    fd = _fd()
    seen = _edges(fd)
    fd.add_peer(9, now=5.0)
    assert fd.state(9, 5.5) == ALIVE
    fd.add_peer(9, now=50.0)  # no-op: must not move last progress
    assert fd.state(9, 6.5) == SUSPECT
    assert (9, ALIVE, SUSPECT) in seen
