"""The generic replication layer."""

import pytest

from repro.app.replication import ReplicatedService, StateMachine
from repro.core.party import make_parties
from repro.testing.invariants import tap_applies

from tests.helpers import no_errors, sim_runtime, sync_applied


class Counter(StateMachine):
    """Minimal deterministic state machine: add/sub on one integer."""

    def __init__(self):
        self.value = 0

    def apply(self, command: bytes) -> bytes:
        op, _, amount = command.partition(b":")
        try:
            amount = int(amount)
        except ValueError:
            return b"error"
        if op == b"add":
            self.value += amount
        elif op == b"sub":
            self.value -= amount
        else:
            return b"error"
        return str(self.value).encode()

    def snapshot(self) -> bytes:
        return str(self.value).encode()


def _services(rt, **kwargs):
    return [
        ReplicatedService(p, "counter", Counter(), **kwargs)
        for p in make_parties(rt)
    ]


def test_commands_apply_in_total_order(group4):
    rt = sim_runtime(group4, seed=1)
    services = _services(rt)
    logs = [tap_applies(s) for s in services]
    services[0].submit(b"add:10")
    services[1].submit(b"sub:3")
    services[2].submit(b"add:1")
    sync_applied(rt, services, 3)
    values = {s.state.value for s in services}
    assert values == {8}
    # intermediate results identical too (same order everywhere)
    assert [r for _, r in logs[0]] == [r for _, r in logs[3]]
    no_errors(rt)


def test_log_and_state_digests(group4):
    rt = sim_runtime(group4, seed=2)
    services = _services(rt)
    logs = [tap_applies(s) for s in services]
    services[0].submit(b"add:5")
    services[0].submit(b"add:7")
    sync_applied(rt, services, 2)
    assert len({s.state_digest() for s in services}) == 1
    assert len({tuple(log) for log in logs}) == 1
    assert services[0].applied_seq == 2


def test_bad_commands_deterministic(group4):
    """Even rejected commands leave replicas identical."""
    rt = sim_runtime(group4, seed=3)
    services = _services(rt)
    logs = [tap_applies(s) for s in services]
    services[0].submit(b"frobnicate:1")
    services[1].submit(b"add:not-a-number")
    sync_applied(rt, services, 2)
    assert {s.state.value for s in services} == {0}
    assert len({tuple(log) for log in logs}) == 1


def test_secure_flag_uses_secure_channel(group4):
    from repro.core.channel import SecureAtomicChannel

    rt = sim_runtime(group4, seed=4)
    services = _services(rt, secure=True)
    assert all(isinstance(s.channel, SecureAtomicChannel) for s in services)
    services[0].submit(b"add:2")
    sync_applied(rt, services, 1)
    assert {s.state.value for s in services} == {2}


def test_close(group4):
    rt = sim_runtime(group4, seed=5)
    services = _services(rt)
    services[0].submit(b"add:1")
    sync_applied(rt, services, 1)
    for s in services:
        s.close()
    rt.run_all([s.channel.closed for s in services], limit=600)
    assert all(s.channel.is_closed() for s in services)


def test_submit_before_open_raises_typed_error(group4):
    """A deferred-channel service reports misuse with ServiceNotOpen (a
    ReproError), not a bare AttributeError on ``self.channel``."""
    from repro.app import ServiceNotOpen

    class Deferred(ReplicatedService):
        _auto_open_channel = False

    rt = sim_runtime(group4, seed=6)
    svc = Deferred(make_parties(rt)[0], "deferred", Counter())
    assert svc.channel is None
    assert not svc.can_submit()
    with pytest.raises(ServiceNotOpen, match="deferred"):
        svc.submit(b"add:1")
    with pytest.raises(ServiceNotOpen):
        svc.close()
    # Once opened, the same service works normally.
    svc._open_channel()
    assert svc.can_submit()


def test_durable_service_before_start_raises_the_same_typed_error(
    group4, tmp_path
):
    """The durable subclass has no channel until start()/recover(): its
    close() is the base's, so misuse is ServiceNotOpen there too (it used
    to return silently)."""
    from repro.app import ServiceNotOpen
    from repro.recovery import RecoverableService

    rt = sim_runtime(group4, seed=6)
    svc = RecoverableService(
        make_parties(rt)[0], "durable", Counter(), str(tmp_path)
    )
    with pytest.raises(ServiceNotOpen, match="durable"):
        svc.close()
    with pytest.raises(ServiceNotOpen, match="durable"):
        svc.submit(b"add:1")
    svc.start()
    svc.close()
    svc.release()


def test_channel_congestion_is_catchable_from_app_layer(group4):
    """max_pending backpressure surfaces as the re-exported
    ChannelCongested, catchable distinctly from other ReproErrors."""
    from repro.app import ChannelCongested

    rt = sim_runtime(group4, seed=7)
    services = _services(rt, max_pending=1)
    services[0].submit(b"add:1")
    assert not services[0].can_submit()
    with pytest.raises(ChannelCongested):
        services[0].submit(b"add:2")
    sync_applied(rt, services, 1)
    # Delivery drained the send buffer: submission is possible again.
    assert services[0].can_submit()
    services[0].submit(b"add:2")
    sync_applied(rt, services, 2)
    assert {s.state.value for s in services} == {3}


def test_applied_commands_leave_nothing_queued(group4):
    """A service's channel hands each delivery to the service's listener
    only: after any number of applied commands its ``outputs`` queue, which
    nothing drains, is empty, and the channel counts what it delivered."""
    rt = sim_runtime(group4, seed=8)
    services = _services(rt)
    for k in range(6):
        services[k % 4].submit(b"add:1")
    sync_applied(rt, services, 6)
    for s in services:
        assert len(s.channel.outputs) == 0
        assert s.channel.delivered == 6
