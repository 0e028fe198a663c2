"""A partial vector waits for the lowest round.

Inside the pipeline window a party signs a candidate for a round *above*
its lowest undelivered one only when the vector is full
(``len == max_batch``); the lowest round takes whatever is there, exactly
as at depth 1.  So a window of rounds in flight no longer cuts a backlog
into many small vectors, ``max_batch = 1`` (every vector is full) is
untouched — pinned as the ``b1-d4`` cell of ``test_atomic_rounds.py`` —
and liveness and fairness are depth 1's.
"""

from __future__ import annotations

import pytest

from repro.app.replication import ReplicatedService
from repro.client import DedupStateMachine, RequestServer
from repro.client.simnet import SimClientNetwork
from repro.common.encoding import encode
from repro.core.channel import AtomicChannel
from repro.core.party import make_parties
from tests.core.test_channel_resume import _read
from tests.helpers import no_errors, sim_runtime
from tests.recovery.test_service_sim import RCounter


def _watch_announcements(ch, log):
    """Record ``(round signed for, lowest round then, vector length)`` of
    every candidate ``ch`` puts out."""
    announce = ch._announce

    def watched(r, vector):
        log.append((r, ch.round, len(vector)))
        announce(r, vector)

    ch._announce = watched


def _drain(rt, chans, expect):
    """Read ``expect`` payloads everywhere; the one order they came in."""
    got = _read(rt, dict(enumerate(chans)), expect)
    no_errors(rt)
    assert all(order == got[0] for order in got.values())
    return got[0]


# -- (b) the throughput bench's burst ----------------------------------------------


def _burst_rounds(group, depth):
    """``benchmarks/test_bench_throughput.py``'s burst: 96 requests from 4
    clients through 4 replicas at ``max_batch=64``."""
    rt = sim_runtime(group, seed=47)
    services = [
        ReplicatedService(
            p, "burst", DedupStateMachine(RCounter()),
            max_batch=64, pipeline_depth=depth,
        )
        for p in make_parties(rt)
    ]
    net = SimClientNetwork(rt)
    for i, svc in enumerate(services):
        net.attach(i, RequestServer(svc, max_inflight_per_client=256, max_backlog=1024))
    clients = [
        net.connect(f"client-{k}", contact=k, timeout=5.0, seed=47) for k in range(4)
    ]
    rt.run_all([clients[k % 4].submit(b"add:1") for k in range(96)], limit=3000)
    rt.run()
    no_errors(rt)
    assert all(s.state.inner.value == 96 for s in services)
    assert len({s.last_state_digest() for s in services}) == 1
    return services[0].channel.rounds_completed


def test_pipelined_burst_costs_at_most_one_round_more_than_depth_one(group4):
    """The parent cut this burst into 10 rounds at depth 4 against 3."""
    sequential = _burst_rounds(group4, 1)
    pipelined = _burst_rounds(group4, 4)
    assert pipelined <= sequential + 1, (pipelined, sequential)


# -- (c) no partial own vector above the lowest round ------------------------------

MAX_BATCH = 4


def test_no_party_signs_a_partial_vector_above_its_lowest_round(group4):
    """Submits trickle in while rounds run, so every party sees backlogs of
    every size from 1 up; whatever it signs for a round above its lowest
    is full.  The window still opens: full vectors do go out ahead."""
    rt = sim_runtime(group4, seed=23)
    chans = [
        AtomicChannel(rt.contexts[i], "rule", max_batch=MAX_BATCH, pipeline_depth=4)
        for i in range(4)
    ]
    logs = [[] for _ in chans]
    for ch, log in zip(chans, logs):
        _watch_announcements(ch, log)

    def sender(ch, count, gap):
        for k in range(count):
            ch.send(encode(("cmd", ch.ctx.node_id, k)))
            yield gap

    # party 0 floods, 1 and 2 trickle at different paces, 3 only adopts
    plan = [(30, 0.0), (12, 0.02), (7, 0.11), (0, 0.0)]
    for ch, (count, gap) in zip(chans, plan):
        rt.spawn(sender(ch, count, gap))
    order = _drain(rt, chans, sum(count for count, _ in plan))
    assert len(set(order)) == len(order)

    announced = [entry for log in logs for entry in log]
    ahead = [entry for entry in announced if entry[0] > entry[1]]
    assert all(size == MAX_BATCH for _r, _lowest, size in ahead), ahead
    assert ahead, "no round was ever opened ahead: the pipeline never engaged"
    assert any(size < MAX_BATCH for _r, _lowest, size in announced)


# -- (d) liveness: one full backlog, three empty queues ----------------------------


def test_a_full_backlog_opens_the_next_round_while_the_others_have_nothing(group4):
    """Party 0 holds three full vectors and a remainder; nobody else sends.
    It opens ``r + 1`` to ``r + 3`` at once; the others, with nothing of
    their own, adopt — for a round above their lowest only a full vector —
    and everything delivers, in one order, everywhere."""
    rt = sim_runtime(group4, seed=29)
    chans = [
        AtomicChannel(rt.contexts[i], "live", max_batch=MAX_BATCH, pipeline_depth=4)
        for i in range(4)
    ]
    logs = [[] for _ in chans]
    for ch, log in zip(chans, logs):
        _watch_announcements(ch, log)
    sent = [encode(("cmd", 0, k)) for k in range(3 * MAX_BATCH + 2)]
    for payload in sent:
        chans[0].send(payload)

    order = _drain(rt, chans, len(sent))
    assert order == sent  # one origin: per-origin FIFO is the total order
    # round 1 took the first record alone, as depth 1 would; the three
    # full vectors went out for rounds 2-4 while round 1 was still lowest
    assert logs[0][:4] == [(1, 1, 1)] + [(r, 1, MAX_BATCH) for r in (2, 3, 4)]
    for log in logs:
        assert all(r == lowest or size == MAX_BATCH for r, lowest, size in log)
    for ch in chans:
        assert ch.pending() == 0 and not ch._pending and not ch._reserved
