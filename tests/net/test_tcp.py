"""The asyncio TCP runtime: the same protocols over real sockets."""

import asyncio
import logging

import pytest

from repro.common.errors import TransportError
from repro.common.rng import derive
from repro.core.agreement import BinaryAgreement
from repro.core.broadcast import ReliableBroadcast
from repro.core.channel import AtomicChannel
from repro.net.tcp import (
    KIND_HELLO,
    AsyncQueue,
    BackoffPolicy,
    TcpNode,
    local_endpoints,
    write_frame,
)

from tests.conftest import cached_group


def _run(coro, timeout=60):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def _with_nodes(body, n=4, t=1, **node_kwargs):
    group = cached_group(n, t)
    endpoints = local_endpoints(n)
    nodes = [TcpNode(group, i, endpoints, **node_kwargs) for i in range(n)]
    await asyncio.gather(*(node.start() for node in nodes))
    try:
        return await body(nodes)
    finally:
        await asyncio.gather(*(node.stop() for node in nodes))


def test_endpoint_count_checked():
    group = cached_group()
    with pytest.raises(TransportError):
        TcpNode(group, 0, local_endpoints(3))


def test_local_endpoints_are_ephemeral_and_distinct():
    # no fixed base: the kernel assigns the ports, so parallel test runs
    # cannot collide; all n must be distinct within one call
    eps = local_endpoints(8)
    assert len({port for _, port in eps}) == 8
    assert all(port > 0 for _, port in eps)
    # the historical fixed-base form is still available for config files
    assert local_endpoints(3, base_port=50000) == [
        ("127.0.0.1", 50000 + i) for i in range(3)
    ]


def test_reliable_broadcast_over_tcp():
    async def body(nodes):
        rbcs = [ReliableBroadcast(node.ctx, "rbc", 0) for node in nodes]
        rbcs[0].send(b"over tcp")
        return await asyncio.gather(*(r.delivered for r in rbcs))

    values = _run(_with_nodes(body))
    assert values == [b"over tcp"] * 4


def test_binary_agreement_over_tcp():
    async def body(nodes):
        abas = [BinaryAgreement(node.ctx, "aba") for node in nodes]
        for i, a in enumerate(abas):
            a.propose(i % 2)
        return await asyncio.gather(*(a.decided for a in abas))

    results = _run(_with_nodes(body))
    assert len({v for v, _ in results}) == 1


def test_atomic_channel_total_order_over_tcp():
    async def body(nodes):
        chans = [AtomicChannel(node.ctx, "at") for node in nodes]
        for k in range(3):
            chans[k % 4].send(b"m%d" % k)

        async def drain(ch):
            out = []
            while len(out) < 3:
                out.append(await ch.receive())
            return out

        return await asyncio.gather(*(drain(ch) for ch in chans))

    sequences = _run(_with_nodes(body))
    assert all(seq == sequences[0] for seq in sequences)
    assert sorted(sequences[0]) == [b"m0", b"m1", b"m2"]


def test_a_broadcast_packs_one_body_for_every_link(monkeypatch):
    import repro.net.tcp as tcp_mod
    from repro.net.message import pack_body

    packed = []

    def counted(pid, mtype, payload):
        packed.append((pid, mtype))
        return pack_body(pid, mtype, payload)

    monkeypatch.setattr(tcp_mod, "pack_body", counted)
    node = TcpNode(cached_group(4, 1), 0, local_endpoints(4))
    frames = []
    node.send_frame = lambda dst, body: frames.append((dst, body))
    payload = (b"one body", 7)
    node.ctx.broadcast("echo", "note", payload)
    assert packed == [("echo", "note")]
    body = pack_body("echo", "note", payload)
    assert frames == [(dst, body) for dst in range(4)]


def test_auth_failures_counted():
    async def body(nodes):
        # a raw client writes garbage to node 0's listening socket
        host, port = nodes[0].listen_endpoint
        _, writer = await asyncio.open_connection(host, port)
        frame = b"not a sealed frame"
        import struct

        writer.write(struct.pack(">I", len(frame)) + frame)
        await writer.drain()
        await asyncio.sleep(0.2)
        writer.close()
        return nodes[0].auth_failures

    failures = _run(_with_nodes(body))
    assert failures == 1


def test_forged_sender_refused_and_counted():
    """Node 3 writes node 0 the envelope the local loop used to carry — a
    vote "from 0" — down its own authenticated link: nothing a peer writes
    names a sender, so it is a malformed body from 3 and is counted."""
    from repro.common.encoding import encode
    from repro.core.protocol import Protocol
    from repro.net.message import pack_body
    from repro.obs.recorder import MemoryRecorder

    class Sink(Protocol):
        def __init__(self, ctx):
            super().__init__(ctx, "sink")
            self.seen = []
            self.got = ctx.new_future()

        def on_message(self, sender, mtype, payload):
            self.seen.append((sender, mtype, payload))
            self.got.resolve()

    recorder = MemoryRecorder()

    async def body(nodes):
        sinks = [Sink(node.ctx) for node in nodes]
        off_link = []
        nodes[0].ctx.router.observers.append(lambda sender, *_: off_link.append(sender))
        forged = pack_body("sink", "ping", b"forged")
        nodes[3].send_frame(0, encode((0, b"", forged)))
        sinks[3].unicast(0, "ping", b"honest")  # FIFO: arrives after the forgery
        await sinks[0].got
        return nodes[0].auth_failures, off_link, sinks[0].seen

    failures, off_link, seen = _run(_with_nodes(body, recorder=recorder))
    assert failures == 1
    assert recorder.snapshot()["counters"]["tcp.auth_failures"] == 1
    assert off_link == [3]
    assert seen == [(3, "ping", b"honest")]


def test_a_raising_handler_leaves_the_node_serving_and_is_counted(caplog):
    """A handler exception on TCP is this server's bug, not the peer's
    input: it is logged with its traceback, counted and recorded, and the
    link keeps carrying what follows."""
    from repro.core.protocol import Protocol
    from repro.obs.recorder import MemoryRecorder

    class Flaky(Protocol):
        MESSAGES = {"boom": bytes, "ping": bytes}

        def __init__(self, ctx):
            super().__init__(ctx, "flaky")
            self.seen = []
            self.got = ctx.new_future()

        def on_message(self, sender, mtype, payload):
            if mtype == "boom":
                raise ValueError("planted handler bug")
            self.seen.append((sender, payload))
            self.got.resolve()

    recorder = MemoryRecorder()

    async def body(nodes):
        flaky = [Flaky(node.ctx) for node in nodes]
        flaky[1].unicast(0, "boom", b"first")
        flaky[1].unicast(0, "ping", b"second")  # FIFO: arrives after the bug
        await flaky[0].got
        return flaky[0].seen, nodes[0].ctx.router.errors

    with caplog.at_level(logging.ERROR, logger="repro.net.tcp"):
        seen, errors = _run(_with_nodes(body, recorder=recorder))
    assert seen == [(1, b"second")]
    assert [(pid, sender, type(exc)) for pid, sender, exc in errors] == [
        ("flaky", 1, ValueError)
    ]
    assert recorder.snapshot()["counters"]["tcp.handler_errors"] == 1
    [record] = [r for r in caplog.records if r.exc_info]
    assert "planted handler bug" in str(record.exc_info[1])


def test_async_future_reject_raises_on_await():
    from repro.net.tcp import AsyncFuture

    async def body():
        fut = AsyncFuture()
        fut.reject(TransportError("gone"))
        fut.resolve("late")  # first outcome wins, as with resolve
        assert fut.done
        with pytest.raises(TransportError):
            await fut

    _run(body())


def test_async_queue_interface():
    async def body():
        q = AsyncQueue()
        assert not q.can_get() and len(q) == 0
        q.put(1)
        assert q.can_get() and len(q) == 1
        assert await q.get() == 1

    _run(body())


# -- connection supervision ------------------------------------------------------


def test_backoff_grows_exponentially_to_cap():
    policy = BackoffPolicy(base=0.1, cap=1.0, multiplier=2.0, jitter=0.0)
    delays = [policy.delay(a) for a in range(6)]
    assert delays == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]


def test_backoff_jitter_is_bounded_and_deterministic():
    a = BackoffPolicy(base=0.1, cap=1.0, jitter=0.25, rng=derive(7, "backoff"))
    b = BackoffPolicy(base=0.1, cap=1.0, jitter=0.25, rng=derive(7, "backoff"))
    delays_a = [a.delay(k) for k in range(50)]
    delays_b = [b.delay(k) for k in range(50)]
    assert delays_a == delays_b  # same derived stream, same schedule
    for attempt, delay in enumerate(delays_a):
        raw = min(1.0, 0.1 * 2.0 ** attempt)
        assert raw * 0.75 - 1e-12 <= delay <= raw * 1.25 + 1e-12
    assert len(set(delays_a[10:])) > 1  # capped but still spread


def test_backoff_parameter_validation():
    with pytest.raises(TransportError):
        BackoffPolicy(base=0.0)
    with pytest.raises(TransportError):
        BackoffPolicy(base=1.0, cap=0.5)
    with pytest.raises(TransportError):
        BackoffPolicy(jitter=1.0)


def test_writer_survives_peer_listener_restart():
    """A peer's inbound socket dying must not kill the link: the
    supervisor reconnects and the session resumes without frame loss."""

    async def body():
        group = cached_group(2, 0)
        endpoints = local_endpoints(2)
        nodes = [
            TcpNode(group, i, endpoints, connect_retry_s=0.02, seed=i)
            for i in range(2)
        ]
        await asyncio.gather(*(node.start() for node in nodes))
        try:
            rbc = [ReliableBroadcast(node.ctx, "r1", 0) for node in nodes]
            rbc[0].send(b"before")
            await asyncio.gather(*(r.delivered for r in rbc))

            # hard-close every established connection into node 1
            for writer in list(nodes[1]._incoming):
                writer.transport.abort()

            rbc2 = [ReliableBroadcast(node.ctx, "r2", 0) for node in nodes]
            rbc2[0].send(b"after reconnect")
            values = await asyncio.gather(*(r.delivered for r in rbc2))
            return values, nodes[0].link_stats(1)
        finally:
            await asyncio.gather(*(node.stop() for node in nodes))

    values, stats = _run(body())
    assert values == [b"after reconnect"] * 2
    assert stats.reconnects >= 1


def test_stats_and_peer_states_exposed():
    async def body(nodes):
        rbcs = [ReliableBroadcast(node.ctx, "rbc", 0) for node in nodes]
        rbcs[0].send(b"x")
        await asyncio.gather(*(r.delivered for r in rbcs))
        return nodes[0].stats()

    stats = _run(_with_nodes(body))
    assert set(stats["peers"]) == {1, 2, 3}
    assert stats["frames_received"] > 0
    assert stats["reconnects"] == 0  # clean run: first connects only


def test_recorded_stats_leave_numeric_gauges_only():
    """Every gauge a node's ``stats()`` writes is a number, so the
    recorder's snapshot exports as a valid BENCH record."""
    from repro.obs import make_record
    from repro.obs.recorder import MemoryRecorder

    recorder = MemoryRecorder()

    async def body(nodes):
        rbcs = [ReliableBroadcast(node.ctx, "rbc", 0) for node in nodes]
        rbcs[0].send(b"x")
        await asyncio.gather(*(r.delivered for r in rbcs))
        nodes[0].stats()

    _run(_with_nodes(body, recorder=recorder))
    gauges = recorder.snapshot()["gauges"]
    assert "tcp.link.retransmissions" in gauges
    assert all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in gauges.values()
    ), gauges
    make_record("tcp-gauges", recorder=recorder)


def test_stop_cancels_protocol_timers():
    async def body():
        group = cached_group(2, 0)
        endpoints = local_endpoints(2)
        nodes = [TcpNode(group, i, endpoints) for i in range(2)]
        await asyncio.gather(*(node.start() for node in nodes))
        fired = []
        nodes[0].ctx.set_timer(30.0, lambda: fired.append(1))
        assert len(nodes[0]._timers) == 1
        await asyncio.gather(*(node.stop() for node in nodes))
        assert nodes[0]._timers == set()
        return fired

    assert _run(body()) == []


def test_frame_kinds_beyond_hello_data_ack_are_refused():
    """A correctly tagged ``("hb", …)`` frame behind a valid hello is an
    unknown kind like any other: counted, and the connection drops."""
    from repro.common.encoding import encode

    group = cached_group(2, 0)
    auth = group.party(1).link_auth(0)  # node 0's link with party 1
    session = b"s" * 16
    hello = (KIND_HELLO, 1, session)
    beat = ("hb", 1, 0)

    async def body():
        # node 0 runs alone: the raw connection below plays party 1
        node = TcpNode(group, 0, local_endpoints(2), seed="hb-refused")
        await node.start()
        try:
            with pytest.raises(TransportError, match="unknown frame kind"):
                node._handle_frame(1, encode(beat + (auth.tag(encode(beat)),)))
            reader, writer = await asyncio.open_connection(*node.listen_endpoint)
            write_frame(writer, encode(hello + (auth.tag(encode(hello)),)))
            write_frame(writer, encode(beat + (auth.tag(encode(beat)),)))
            await writer.drain()
            try:
                dropped = await asyncio.wait_for(reader.read(), 2.0) == b""
            except asyncio.TimeoutError:
                dropped = False
            writer.close()
            return node.auth_failures, dropped
        finally:
            await node.stop()

    failures, dropped = _run(body())
    assert failures == 2
    assert dropped
