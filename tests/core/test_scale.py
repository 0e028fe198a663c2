"""Larger groups: n = 10, t = 3 — protocols scale beyond the paper's 4/7."""

import pytest

from repro.core.agreement import ArrayAgreement, BinaryAgreement
from repro.core.broadcast import ReliableBroadcast
from repro.core.channel import AtomicChannel
from repro.net.faults import CrashFault, FaultPlan

from tests.conftest import cached_group
from tests.helpers import no_errors, sim_runtime


@pytest.fixture(scope="module")
def group10():
    return cached_group(10, 3)


def test_broadcast_n10(group10):
    rt = sim_runtime(group10, seed=1)
    rbcs = [ReliableBroadcast(ctx, "s-rbc", 0) for ctx in rt.contexts]
    rbcs[0].send(b"ten")
    assert rt.run_all([r.delivered for r in rbcs], limit=600) == [b"ten"] * 10
    no_errors(rt)


def test_agreement_n10_split(group10):
    rt = sim_runtime(group10, seed=2)
    abas = [BinaryAgreement(ctx, "s-aba") for ctx in rt.contexts]
    for i, a in enumerate(abas):
        a.propose(i % 2)
    results = rt.run_all([a.decided for a in abas], limit=3000)
    assert len({v for v, _ in results}) == 1
    no_errors(rt)


def test_agreement_n10_with_three_crashes(group10):
    rt = sim_runtime(
        group10, seed=3,
        faults=FaultPlan(crashes=tuple(CrashFault(i) for i in (7, 8, 9))),
    )
    abas = [BinaryAgreement(rt.contexts[i], "s-aba-c") for i in range(7)]
    for i, a in enumerate(abas):
        a.propose(i % 2)
    results = rt.run_all([a.decided for a in abas], limit=3000)
    assert len({v for v, _ in results}) == 1


def test_mvba_n10(group10):
    rt = sim_runtime(group10, seed=4)
    mvbas = [ArrayAgreement(ctx, "s-mvba") for ctx in rt.contexts]
    for i, m in enumerate(mvbas):
        m.propose(b"p%d" % i)
    decisions = {v for v, _ in rt.run_all([m.decided for m in mvbas], limit=3000)}
    assert len(decisions) == 1


def _atomic_channel_n10(group, seed, crashed, senders):
    rt = sim_runtime(
        group, seed=seed,
        faults=FaultPlan(crashes=tuple(CrashFault(i) for i in crashed)),
    )
    chans = {
        i: AtomicChannel(rt.contexts[i], "s-at")
        for i in range(10) if i not in crashed
    }
    for s in senders:
        chans[s].send(b"from-%d" % s)
    got = {i: [] for i in chans}

    def reader(i):
        while len(got[i]) < 3:
            payload = yield chans[i].receive()
            got[i].append(payload)

    procs = [rt.spawn(reader(i)) for i in chans]
    for p in procs:
        rt.run_until(p.future, limit=3000)
    first = got[min(chans)]
    assert all(g == first for g in got.values())
    assert sorted(first) == sorted(b"from-%d" % s for s in senders)
    # batch size defaults to t+1 = 4
    assert chans[min(chans)].batch_size == 4
    no_errors(rt)


def test_atomic_channel_n10(group10):
    _atomic_channel_n10(group10, seed=5, crashed=(), senders=(0, 4, 9))


def test_atomic_channel_n10_with_crashed_party(group10):
    _atomic_channel_n10(group10, seed=6, crashed=(0,), senders=(4, 5, 9))
