"""Router: buffering, replay, tombstones, the schema check at the boundary."""

import pytest

from repro.common.errors import Malformed, PidCollision, ProtocolError
from repro.core.protocol import Protocol, Router

from tests.conftest import cached_group
from tests.helpers import MockContext


class Recorder(Protocol):
    def __init__(self, ctx, pid):
        super().__init__(ctx, pid)
        self.seen = []

    def on_message(self, sender, mtype, payload):
        if mtype == "boom":
            raise ValueError("malicious payload")
        self.seen.append((sender, mtype, payload))


def _ctx():
    return MockContext(cached_group())


def test_dispatch_to_registered():
    ctx = _ctx()
    proto = Recorder(ctx, "p")
    ctx.router.dispatch(1, "p", "m", b"x")
    assert proto.seen == [(1, "m", b"x")]


def test_early_messages_buffered_and_replayed_in_order():
    ctx = _ctx()
    ctx.router.dispatch(1, "late", "m", 1)
    ctx.router.dispatch(2, "late", "m", 2)
    proto = Recorder(ctx, "late")
    assert proto.seen == []  # replay is deferred until construction is done
    ctx.flush()
    assert proto.seen == [(1, "m", 1), (2, "m", 2)]


def test_duplicate_pid_rejected():
    ctx = _ctx()
    Recorder(ctx, "p")
    with pytest.raises(ProtocolError):
        Recorder(ctx, "p")


def test_tombstone_drops_after_halt():
    ctx = _ctx()
    proto = Recorder(ctx, "p")
    proto.halt()
    ctx.router.dispatch(0, "p", "m", b"x")
    assert ctx.router.dropped == 1
    assert proto.seen == []
    with pytest.raises(ProtocolError):
        Recorder(ctx, "p")  # terminated pids cannot be reused


class Spawner(Protocol):
    """Builds a :class:`Recorder` under the pid each message names."""

    def on_message(self, sender, mtype, payload):
        Recorder(self.ctx, payload)


def test_pid_collision_in_a_handler_is_not_contained():
    """Registering a terminated pid is the party's own bug, never input:
    it fails the run instead of landing in ``errors``."""
    ctx = _ctx()
    Recorder(ctx, "old").halt()
    Spawner(ctx, "spawner")
    with pytest.raises(PidCollision, match="already terminated"):
        ctx.router.dispatch(1, "spawner", "spawn", "old")
    assert ctx.router.errors == []


class Declared(Recorder):
    """Takes ``("ok", bytes)`` and ``("boom", None)`` only."""

    MESSAGES = {"ok": bytes, "boom": None}


def test_malformed_payload_is_recorded_and_never_handled():
    ctx = _ctx()
    proto = Declared(ctx, "p")
    ctx.router.dispatch(2, "p", "ok", 7)  # wrong shape
    ctx.router.dispatch(3, "p", "unknown", b"x")  # undeclared type
    ctx.router.dispatch(1, "p", "ok", b"x")
    assert proto.seen == [(1, "ok", b"x")]  # the instance keeps working
    assert [(pid, sender, type(exc), exc.mtype) for pid, sender, exc in ctx.router.errors] == [
        ("p", 2, Malformed, "ok"),
        ("p", 3, Malformed, "unknown"),
    ]


def test_a_handler_exception_propagates_out_of_dispatch():
    """A well-formed message the handler trips over is the handler's bug:
    it fails the run where it happens, and is never recorded as input."""
    ctx = _ctx()
    Declared(ctx, "p")
    with pytest.raises(ValueError, match="malicious payload"):
        ctx.router.dispatch(0, "p", "boom", None)
    assert ctx.router.errors == []


def test_buffer_limit():
    ctx = _ctx()
    ctx.router._buffer_limit = 5
    for i in range(10):
        ctx.router.dispatch(0, "never", "m", i)
    assert ctx.router.dropped == 5


def test_unregister_unknown_is_noop_tombstone():
    ctx = _ctx()
    ctx.router.unregister("ghost")
    ctx.router.dispatch(0, "ghost", "m", None)
    assert ctx.router.dropped == 1


def test_abort_unregisters():
    ctx = _ctx()
    proto = Recorder(ctx, "p")
    proto.abort()
    assert proto.halted
    assert "p" not in ctx.router.active_pids


def test_active_pids():
    ctx = _ctx()
    Recorder(ctx, "b")
    Recorder(ctx, "a")
    assert ctx.router.active_pids == ["a", "b"]
