"""The lossy-datagram runtime: SINTRA over its own sliding-window links."""

import math

import pytest

from repro.core.agreement import BinaryAgreement
from repro.core.broadcast import ReliableBroadcast
from repro.core.channel import AtomicChannel
from repro.core.protocol import Protocol
from repro.net.latency import lan_latency
from repro.net.lossy import LossyLinkRuntime

from tests.conftest import cached_group


def _runtime(loss=0.1, duplicate=0.05, seed=1, **kwargs):
    return LossyLinkRuntime(
        cached_group(), latency=lan_latency(), seed=seed,
        loss=loss, duplicate=duplicate, **kwargs,
    )


def test_broadcast_over_lossy_links():
    rt = _runtime()
    rbcs = [ReliableBroadcast(ctx, "lossy-rbc", 0) for ctx in rt.contexts]
    rbcs[0].send(b"through the noise")
    values = rt.run_all([r.delivered for r in rbcs], limit=600)
    assert values == [b"through the noise"] * 4
    assert rt.datagrams_lost > 0  # the channel really was lossy
    assert not rt.router_errors()


def test_agreement_over_lossy_links():
    rt = _runtime(seed=2)
    abas = [BinaryAgreement(ctx, "lossy-aba") for ctx in rt.contexts]
    for i, a in enumerate(abas):
        a.propose(i % 2)
    results = rt.run_all([a.decided for a in abas], limit=3000)
    assert len({v for v, _ in results}) == 1


def test_atomic_channel_over_lossy_links():
    rt = _runtime(seed=3)
    chans = [AtomicChannel(ctx, "lossy-at") for ctx in rt.contexts]
    for k in range(3):
        chans[k % 4].send(b"n%d" % k)
    got = {i: [] for i in range(4)}

    def reader(i):
        while len(got[i]) < 3:
            payload = yield chans[i].receive()
            got[i].append(payload)

    procs = [rt.spawn(reader(i)) for i in range(4)]
    for p in procs:
        rt.run_until(p.future, limit=3000)
    assert all(got[i] == got[0] for i in range(4))


@pytest.mark.parametrize("loss", [0.0, 0.25, 0.4])
def test_heavy_loss_still_reliable(loss):
    """Even 40% datagram loss only slows the protocols down."""
    rt = _runtime(loss=loss, duplicate=0.1, seed=int(loss * 100))
    rbcs = [ReliableBroadcast(ctx, "heavy", 1) for ctx in rt.contexts]
    rbcs[1].send(b"x")
    values = rt.run_all([r.delivered for r in rbcs], limit=3000)
    assert values == [b"x"] * 4


def test_loss_costs_time_not_correctness():
    def completion(loss, seed=7):
        rt = _runtime(loss=loss, duplicate=0.0, seed=seed)
        rbcs = [ReliableBroadcast(ctx, "timing", 0) for ctx in rt.contexts]
        rbcs[0].send(b"x")
        rt.run_all([r.delivered for r in rbcs], limit=3000)
        return rt.now

    assert completion(0.5) > completion(0.0)


def test_fifo_preserved_over_reordering_channel():
    """The window layer restores per-pair FIFO even though datagram
    latencies are independently jittered."""
    rt = _runtime(loss=0.2, seed=9)

    class Collector(Protocol):
        def __init__(self, ctx):
            super().__init__(ctx, "fifo")
            self.seen = []

        def on_message(self, sender, mtype, payload):
            self.seen.append(payload)

    protos = [Collector(ctx) for ctx in rt.contexts]

    def burst():
        for k in range(15):
            protos[0].unicast(1, "m", k)

    rt.run_on_node(0, burst)
    rt.run(until=60)
    assert protos[1].seen == list(range(15))


# -- the measured timeout, pinned where the clock is simulated ---------------


def test_burst_without_loss_retransmits_nothing():
    """64 payloads in one ``max_batch=64`` burst over lossless links: every
    ACK (a LAN round trip, well under a millisecond) beats the timeout,
    whose floor is :data:`~repro.net.sliding_window.RTO_MIN`."""
    rt = _runtime(loss=0.0, duplicate=0.0, seed=4)
    chans = [AtomicChannel(ctx, "burst", max_batch=64) for ctx in rt.contexts]
    payloads = [b"b%02d" % k for k in range(64)]
    rt.run_on_node(0, lambda: [chans[0].send(p) for p in payloads])
    got = {i: [] for i in range(4)}

    def reader(i):
        while len(got[i]) < 64:
            got[i].append((yield chans[i].receive()))

    for proc in [rt.spawn(reader(i)) for i in range(4)]:
        rt.run_until(proc.future, limit=600)
    assert sorted(got[0]) == payloads
    assert rt.retransmissions == 0


class PingPong(Protocol):
    """Party 0 pings party 1, which pongs back; the next ping waits."""

    def __init__(self, ctx, rounds):
        super().__init__(ctx, "pingpong")
        self.rounds = rounds
        self.done = ctx.new_future()

    def on_message(self, sender, mtype, k):
        if mtype == "ping":
            self.unicast(sender, "pong", k)
        elif k + 1 < self.rounds:
            self.unicast(sender, "ping", k + 1)
        else:
            self.done.resolve()


@pytest.mark.parametrize("loss", [0.1, 0.3])
def test_retransmissions_under_loss_stay_under_the_geometric_bound(loss):
    """The bound, derived.  A ping or pong is the newest datagram in its
    direction until it is acknowledged, and its predecessor was delivered
    already, so the ACK of any of its copies covers it.  A copy is wasted
    unless the copy and its ACK both survive: probability
    ``q = 1 - (1 - loss)**2``, independently per copy (no duplication).
    The timeout never fires on a surviving exchange (its floor is hundreds
    of LAN round trips), so a message's retransmissions ``N`` satisfy
    ``P(N >= j) <= q**j``: mean at most ``q / (1 - q)``, variance at most
    ``q / (1 - q)**2``.  Over ``M`` messages the total stays under
    ``M q / (1 - q) + 4 sqrt(M q) / (1 - q)``: four standard deviations
    above the mean of the worst case."""
    rounds = 100
    rt = _runtime(loss=loss, duplicate=0.0, seed=5)
    protos = [PingPong(ctx, rounds) for ctx in rt.contexts]
    rt.run_on_node(0, lambda: protos[0].unicast(1, "ping", 0))
    rt.run_until(protos[0].done, limit=3000)
    m = 2 * rounds
    q = 1 - (1 - loss) ** 2
    bound = m * q / (1 - q) + 4 * math.sqrt(m * q) / (1 - q)
    assert 0 < rt.retransmissions < bound
