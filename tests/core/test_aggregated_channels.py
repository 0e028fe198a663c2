"""Reliable and consistent channels: multiplexing, ordering guarantees,
termination, Byzantine senders."""

import pytest

from repro.common.errors import ProtocolError
from repro.core.channel import ConsistentChannel, ReliableChannel
from repro.net.faults import CrashFault, FaultPlan
from repro.testing.invariants import tap

from tests.core.byz import EquivocatingBroadcastSender
from tests.helpers import no_errors, sim_runtime


def _make(rt, cls, pid, parties=None):
    parties = parties if parties is not None else range(rt.group.n)
    return {i: cls(rt.contexts[i], pid) for i in parties}


def _drain(rt, channels, expect, limit=3000):
    got = {i: [] for i in channels}

    def reader(i, ch):
        while len(got[i]) < expect:
            payload = yield ch.receive()
            got[i].append(payload)

    procs = [rt.spawn(reader(i, ch)) for i, ch in channels.items()]
    for p in procs:
        rt.run_until(p.future, limit=limit)
    return got


@pytest.fixture(params=[ReliableChannel, ConsistentChannel])
def channel_cls(request):
    return request.param


def test_single_sender_stream(group4, channel_cls):
    rt = sim_runtime(group4, seed=1)
    chans = _make(rt, channel_cls, "agg")
    msgs = [b"m%d" % k for k in range(5)]
    for m in msgs:
        chans[0].send(m)
    got = _drain(rt, chans, 5)
    # per-sender FIFO holds (instances are sequenced per sender)
    assert all(g == msgs for g in got.values())
    no_errors(rt)


def test_multiple_senders_all_delivered(group4, channel_cls):
    rt = sim_runtime(group4, seed=2)
    chans = _make(rt, channel_cls, "agg2")
    expected = set()
    for s in range(4):
        for k in range(3):
            m = b"s%d-%d" % (s, k)
            expected.add(m)
            chans[s].send(m)
    got = _drain(rt, chans, 12)
    for g in got.values():
        assert set(g) == expected
    # NO total order guarantee: different parties may interleave
    # differently, but each observes every message exactly once.


def test_sender_metadata_recorded(group4, channel_cls):
    rt = sim_runtime(group4, seed=3)
    chans = _make(rt, channel_cls, "agg3")
    log = tap(chans[0])
    chans[2].send(b"hello")
    _drain(rt, chans, 1)
    assert log == [(2, 0, b"hello")]


def test_close_needs_t_plus_1(group4, channel_cls):
    rt = sim_runtime(group4, seed=4)
    chans = _make(rt, channel_cls, "agg4")
    chans[0].close()
    rt.run(until=30)
    assert not any(ch.is_closed() for ch in chans.values())
    chans[1].close()
    rt.run_all([ch.closed for ch in chans.values()], limit=600)
    assert all(ch.is_closed() for ch in chans.values())
    no_errors(rt)


def test_close_is_last_message(group4, channel_cls):
    rt = sim_runtime(group4, seed=5)
    chans = _make(rt, channel_cls, "agg5")
    chans[0].send(b"before-close")
    chans[0].close()
    with pytest.raises(ProtocolError):
        chans[0].send(b"after-close")
    got = _drain(rt, chans, 1)
    assert got[1] == [b"before-close"]


def test_progress_with_crash(group4, channel_cls):
    rt = sim_runtime(group4, seed=6, faults=FaultPlan(crashes=(CrashFault(3),)))
    chans = _make(rt, channel_cls, "agg6", parties=[0, 1, 2])
    chans[0].send(b"x")
    got = _drain(rt, chans, 1)
    assert all(g == [b"x"] for g in got.values())


def test_reliable_channel_agreement_under_equivocation(group4):
    """Reliable channel keeps agreement per slot even with an equivocating
    sender: honest receivers never deliver different values for one slot."""
    rt = sim_runtime(group4, seed=7)
    chans = _make(rt, ReliableChannel, "eqc", parties=[1, 2, 3])
    logs = [tap(ch) for ch in chans.values()]
    byz = EquivocatingBroadcastSender(
        rt.contexts[0], "eqc/bc.0.0", b"AAAA", b"BBBB", split=2
    )
    byz.start()
    rt.run(until=60)
    values = {d for log in logs for s, _, d in log if s == 0}
    assert len(values) <= 1
    no_errors(rt)


def test_channels_are_virtual(group4, channel_cls):
    """Aggregated channels exchange no messages of their own: every wire
    message belongs to a broadcast instance (pid contains '/bc.')."""
    rt = sim_runtime(group4, seed=8)
    chans = _make(rt, channel_cls, "virt")
    chans[0].send(b"x")
    _drain(rt, chans, 1)
    assert not rt.router_errors()
    for router in rt.routers:
        for pid in router.active_pids:
            assert pid.startswith("virt/bc.") or pid == "virt"
