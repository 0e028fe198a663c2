"""Property test over the link rule: a frame's sender is the link it
arrived on (:mod:`repro.net.links`).

Random ``(claimed, tag, body)`` frames are injected on the link from
``src`` to ``dst`` — straight into each runtime's receive path, past
every honest sender — and the router at ``dst`` must see either nothing
or ``sender == src``, whoever the frame claims to be and whichever
pairwise key its tag was made under.  Only the local loop delivers a
party's messages to itself.  On the lossy runtime the frames ride in
window datagrams, as on the TCP mesh.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.adversary.strategies import random_value
from repro.common.encoding import encode
from repro.common.errors import TransportError
from repro.core.protocol import Protocol
from repro.net import links
from repro.net.lossy import LossyLinkRuntime
from repro.net.message import pack_body
from repro.net.sliding_window import KIND_DATA, make_data_datagram
from repro.net.tcp import KIND_HELLO, TcpNode, local_endpoints

from tests.conftest import cached_group
from tests.helpers import sim_runtime

CASES = 300
N = 4


class Sink(Protocol):
    def __init__(self, ctx, pid="sink"):
        super().__init__(ctx, pid)

    def on_message(self, sender, mtype, payload):
        pass


def _frames(label: str, group, src: int, dst: int, count: int = CASES):
    """``(claimed, tag, body, body_ok)``: claims over every id and a few
    impossible ones, tags under every key the parties could pool."""
    rng = random.Random(f"{label}/{src}/{dst}")
    keys = [
        group.party(a).link_auth(b) for a in range(N) for b in range(N) if a != b
    ]
    for _ in range(count):
        body_ok = rng.random() < 0.7
        body = (
            pack_body("sink", "ping", random_value(rng))
            if body_ok
            else encode((random_value(rng),))  # no (pid, mtype, payload)
        )
        claimed = rng.choice([*range(N), -1, N, 99])
        tag = rng.choice([b"", rng.randbytes(32), rng.choice(keys).tag(body)])
        if src != dst and rng.random() < 0.3:
            tag = group.party(src).link_auth(dst).tag(body)  # the link's own key
        yield claimed, tag, body, body_ok


def _window_datagrams(label: str, group, src: int, dst: int, session: bytes):
    """``(datagram, genuine, refused)``: window datagrams on the link from
    ``src`` to ``dst`` carrying each frame as a bare body and inside the
    simulator's envelope; a third keep a forged window tag.  ``genuine``:
    the router must see ``src``; ``refused``: the body is counted as an
    auth failure."""
    auth = group.party(src).link_auth(dst)
    seq = 0
    for k, (claimed, tag, msg, body_ok) in enumerate(_frames(label, group, src, dst, 100)):
        for payload, ok in ((msg, body_ok), (encode((claimed, tag, msg)), False)):
            dat = (KIND_DATA, session, seq, payload)
            window_tag = auth.tag(encode(dat))
            accepted = tag == window_tag or k % 3 != 2
            seq += accepted
            datagram = encode(dat + (window_tag if accepted else tag,))
            yield datagram, accepted and ok, accepted and not ok


def _probe(router):
    seen = []
    router.observers.append(lambda sender, *_: seen.append(sender))
    return seen


def test_sim_router_sees_the_link_or_nothing():
    group = cached_group(N, 1)
    rt = sim_runtime(group)
    for ctx in rt.contexts:
        Sink(ctx)
    seen = [_probe(router) for router in rt.routers]
    for src in range(N):
        for dst in range(N):
            delivered = refused = 0
            for claimed, tag, body, body_ok in _frames("sim", group, src, dst):
                before, failures = len(seen[dst]), rt.auth_failures
                rt._arrive(dst, encode((claimed, tag, body)), src)
                if src == dst:  # the local loop: no MAC, but only its own id
                    genuine = claimed == dst and body_ok
                else:
                    link_tag = group.party(src).link_auth(dst).tag(body)
                    genuine = claimed == src and tag == link_tag and body_ok
                assert seen[dst][before:] == ([src] if genuine else [])
                assert rt.auth_failures - failures == (0 if genuine else 1)
                delivered += genuine
                refused += not genuine
            assert delivered and refused  # the generator reaches both sides
    assert not rt.router_errors()
    _lossy_router_sees_the_link_or_nothing(group)


def _lossy_router_sees_the_link_or_nothing(group):
    """The lossy runtime: window datagrams on ``(src, dst)`` carry a bare
    body (or an envelope naming anyone) and reach ``dst``'s router as
    ``sender == src`` or not at all."""
    rt = LossyLinkRuntime(group, seed="link-prop", loss=0.0)
    for ctx in rt.contexts:
        Sink(ctx)
    seen = [_probe(router) for router in rt.routers]
    for src in range(N):
        for dst in (p for p in range(N) if p != src):
            delivered = 0
            session = b"link-%d-%d" % (src, dst)
            for datagram, genuine, refused in _window_datagrams(
                "lossy", group, src, dst, session
            ):
                before, failures = len(seen[dst]), rt.auth_failures
                rt._datagram_arrive(src, dst, datagram)
                assert seen[dst][before:] == ([src] if genuine else [])
                assert rt.auth_failures - failures == refused
                delivered += genuine
            assert delivered
    assert not rt.router_errors()


def test_string_body_is_refused():
    """``encode("abc")`` unpacks into three characters; a correctly
    sealed one from a peer still reaches no router, on either simulator
    runtime (a :class:`Sink` listens as pid ``"a"``)."""
    group = cached_group(N, 1)
    body = encode("abc")
    rt = sim_runtime(group)
    lossy = LossyLinkRuntime(group, seed="abc", loss=0.0)
    for runtime in (rt, lossy):
        for ctx in runtime.contexts:
            Sink(ctx, "a")
    seen = [_probe(router) for router in rt.routers + lossy.routers]
    rt._arrive(1, links.seal(group.party(0), 1, body), 0)
    lossy._datagram_arrive(
        0, 1, make_data_datagram(group.party(0).link_auth(1), b"link-0-1", 0, body)
    )
    assert seen == [[]] * (2 * N)
    assert rt.auth_failures == lossy.auth_failures == 1


def test_sim_frame_from_no_link_is_refused():
    group = cached_group(N, 1)
    rt = sim_runtime(group)
    for ctx in rt.contexts:
        Sink(ctx)
    seen = [_probe(router) for router in rt.routers]
    for dst in range(N):
        for claimed, tag, body, _ in _frames("nolink", group, dst, dst, 50):
            rt._arrive(dst, encode((claimed, tag, body)))
    assert seen == [[]] * N
    assert rt.auth_failures == 50 * N


def test_tcp_router_sees_the_link_or_nothing():
    """The mesh's datagram carries no sender at all: a valid window tag
    under the link's key delivers the payload as the link's peer, even
    when the payload is an envelope claiming someone else."""
    group = cached_group(N, 1)
    session = b"s" * 16

    async def inject(dst):
        # dst runs alone: every frame it receives is one written here
        node = TcpNode(group, dst, local_endpoints(N), seed=("link-prop", dst))
        await node.start()
        try:
            Sink(node.ctx)
            seen = _probe(node.ctx.router)
            for src in (p for p in range(N) if p != dst):
                auth = group.party(src).link_auth(dst)
                hello = (KIND_HELLO, src, session)
                bound = node._handle_frame(
                    None, encode(hello + (auth.tag(encode(hello)),))
                )
                assert bound == src
                delivered = 0
                for datagram, genuine, refused in _window_datagrams(
                    "tcp", group, src, dst, session
                ):
                    before, failures = len(seen), node.auth_failures
                    node._handle_frame(bound, datagram)
                    assert seen[before:] == ([src] if genuine else [])
                    assert node.auth_failures - failures == refused
                    delivered += genuine
                assert delivered
                assert node.link_stats(src).auth_failures  # the forged window tags
        finally:
            await node.stop()

    async def body():
        for dst in range(N):
            await inject(dst)

    asyncio.run(asyncio.wait_for(body(), 60))


def test_tcp_no_connection_binds_to_the_receivers_own_id():
    """Nobody can open a link "from dst" at dst: its self-sends reach the
    router through ``send_frame``'s local loop and nothing else does."""
    group = cached_group(N, 1)

    async def body():
        node = TcpNode(group, 0, local_endpoints(N), seed="link-prop-self")
        await node.start()
        try:
            Sink(node.ctx)
            seen = _probe(node.ctx.router)
            hello = (KIND_HELLO, 0, b"s" * 16)
            for tag in (b"", group.party(3).link_auth(0).tag(encode(hello))):
                with pytest.raises(TransportError):
                    node._handle_frame(None, encode(hello + (tag,)))
            assert node.auth_failures == 2 and seen == []
            node.send_frame(0, pack_body("sink", "ping", b"mine"))
            await asyncio.sleep(0)
            assert seen == [0]
        finally:
            await node.stop()

    asyncio.run(asyncio.wait_for(body(), 60))
