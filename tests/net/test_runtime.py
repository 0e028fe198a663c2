"""SimRuntime: dispatch, FIFO links, fault integration, statistics,
restarting a slot."""

import pytest

from repro.app.kvstore import KVStore
from repro.common.errors import PidCollision
from repro.core.party import Party
from repro.core.protocol import Protocol
from repro.net.faults import CrashFault, FaultPlan, SlowLinkAdversary
from repro.net.latency import lan_latency
from repro.net.runtime import SimRuntime
from repro.recovery import RecoverableService

from tests.conftest import cached_group
from tests.helpers import no_errors


class Echo(Protocol):
    """Replies 'pong' to every 'ping'; records all receptions."""

    def __init__(self, ctx, pid="echo"):
        super().__init__(ctx, pid)
        self.seen = []

    def on_message(self, sender, mtype, payload):
        self.seen.append((self.ctx.now(), sender, mtype, payload))
        if mtype == "ping":
            self.unicast(sender, "pong", payload)


def _runtime(**kwargs):
    return SimRuntime(cached_group(), latency=lan_latency(), seed=3, **kwargs)


def test_ping_pong():
    rt = _runtime()
    protos = [Echo(ctx) for ctx in rt.contexts]
    rt.run_on_node(0, lambda: protos[0].unicast(1, "ping", b"x"))
    rt.run()
    assert any(m[2] == "ping" for m in protos[1].seen)
    assert any(m[2] == "pong" and m[1] == 1 for m in protos[0].seen)
    no_errors(rt)


def test_fifo_per_pair():
    rt = _runtime()
    protos = [Echo(ctx) for ctx in rt.contexts]

    def burst():
        for i in range(20):
            protos[0].unicast(1, "ping", i)

    rt.run_on_node(0, burst)
    rt.run()
    pings = [m[3] for m in protos[1].seen if m[2] == "ping"]
    assert pings == list(range(20))  # links deliver in FIFO order


def test_self_messages_have_no_latency_but_cpu_cost():
    rt = _runtime()
    protos = [Echo(ctx) for ctx in rt.contexts]
    rt.run_on_node(0, lambda: protos[0].unicast(0, "ping", b"self"))
    rt.run()
    assert any(m[1] == 0 and m[2] == "ping" for m in protos[0].seen)
    # self message also produced a self pong
    assert any(m[2] == "pong" for m in protos[0].seen)


def test_crashed_party_silent():
    rt = _runtime(faults=FaultPlan(crashes=(CrashFault(victim=0, crash_at=0.0),)))
    protos = [Echo(ctx) for ctx in rt.contexts]
    rt.run_on_node(0, lambda: protos[0].unicast(1, "ping", b"x"))
    rt.run()
    assert protos[1].seen == []  # nothing from the crashed sender


def test_adversarial_delay_applied():
    rt_fast = _runtime()
    rt_slow = _runtime(
        faults=FaultPlan(adversary=SlowLinkAdversary(delays={(0, 1): 3.0}))
    )
    for rt in (rt_fast, rt_slow):
        protos = [Echo(ctx) for ctx in rt.contexts]
        rt.run_on_node(0, lambda p=protos: p[0].unicast(1, "ping", b"x"))
        rt.run()
        rt._arrival = protos[1].seen[0][0]
    assert rt_slow._arrival > rt_fast._arrival + 2.9


def test_statistics_counted():
    rt = _runtime()
    protos = [Echo(ctx) for ctx in rt.contexts]
    rt.run_on_node(0, lambda: protos[0].unicast(1, "ping", b"x"))
    rt.run()
    assert rt.messages_sent == 2  # ping + pong
    assert rt.bytes_sent > 0


def test_a_broadcast_packs_one_body_and_seals_todays_frames(monkeypatch):
    import repro.net.runtime as runtime_mod
    from repro.net import links
    from repro.net.message import pack_body

    packed = []

    def counted(pid, mtype, payload):
        packed.append((pid, mtype))
        return pack_body(pid, mtype, payload)

    monkeypatch.setattr(runtime_mod, "pack_body", counted)
    rt = _runtime()
    protos = [Echo(ctx) for ctx in rt.contexts]
    frames = []
    rt.wire_taps.append(lambda src, dst, wire, depart: frames.append((dst, wire)))
    payload = (b"one body", 7, [b"for", b"everyone"])
    rt.run_on_node(0, lambda: protos[0].send_all("note", payload))
    assert packed == [("echo", "note")]
    body = pack_body("echo", "note", payload)
    crypto = rt.group.party(0)
    # the same bytes a per-destination send seals
    assert sorted(frames) == [(dst, links.seal(crypto, dst, body)) for dst in range(4)]
    assert rt.protocol_messages == {("echo", "note"): 4}
    rt.run()
    assert all(m[1:] == (0, "note", payload) for p in protos for m in p.seen)


def test_corrupted_wire_counted_not_crashing():
    rt = _runtime()
    [Echo(ctx) for ctx in rt.contexts]
    rt.sim.schedule(0.0, rt._arrive, 1, b"garbage-frame")
    rt.run()
    assert rt.auth_failures == 1


def test_forged_sender_refused_and_counted():
    """Party 3 hands party 0 a frame "from 0" and one "from 1": both are
    refused on the link they arrived on, and 0's router never sees them."""
    from repro.common.encoding import encode
    from repro.net.message import pack_body
    from repro.obs.recorder import MemoryRecorder

    recorder = MemoryRecorder()
    rt = _runtime(recorder=recorder)
    protos = [Echo(ctx) for ctx in rt.contexts]
    off_link = []  # senders router 0 saw; its own are local-loop traffic
    rt.routers[0].observers.append(lambda sender, *_: off_link.append(sender))
    body = pack_body("echo", "ping", b"forged")
    tag = rt.group.party(3).link_auth(0).tag(body)

    def attack():
        rt.nodes[3].emit(0, encode((0, b"", body)))  # untagged, as the local loop's
        rt.nodes[3].emit(0, encode((0, tag, body)))
        rt.nodes[3].emit(0, encode((1, tag, body)))
        protos[3].unicast(0, "ping", b"honest")  # the link itself still works

    rt.run_on_node(3, attack)
    rt.run()
    assert rt.auth_failures == 3
    assert recorder.snapshot()["counters"]["net.auth_failures"] == 3
    assert off_link == [3]
    assert [m[1:] for m in protos[0].seen] == [(3, "ping", b"honest")]


def test_host_count_validated():
    from repro.net.costmodel import LAN_HOSTS

    with pytest.raises(Exception):
        SimRuntime(cached_group(7, 2), hosts=LAN_HOSTS)  # only 4 specs for n=7


def test_api_call_outside_handler_is_scheduled():
    rt = _runtime()
    protos = [Echo(ctx) for ctx in rt.contexts]
    # Context.api from outside any handler must schedule node work.
    rt.contexts[0].api(lambda: protos[0].unicast(1, "ping", b"via-api"))
    rt.run()
    assert any(m[3] == b"via-api" for m in protos[1].seen)



# -- restart: a new process in a slot -----------------------------------------------


class Boom(Protocol):
    MESSAGES = {}  # declares no message: the router refuses every one


def test_restart_drops_frames_in_flight_to_the_old_process():
    rt = _runtime()
    protos = [Echo(ctx) for ctx in rt.contexts]
    rt.run_on_node(0, lambda: protos[0].unicast(1, "ping", b"to-old"))
    rt.restart(1)  # the ping is still on the wire
    successor = Echo(rt.contexts[1])
    rt.run()
    assert protos[1].seen == [] and successor.seen == []
    assert rt.routers[1] is rt.contexts[1].router is not protos[1].ctx.router

    # the link keys belong to the slot: the new process is reachable
    rt.run_on_node(0, lambda: protos[0].unicast(1, "ping", b"to-new"))
    rt.run()
    assert [m[2:] for m in successor.seen] == [("ping", b"to-new")]
    assert [m[2:] for m in protos[0].seen] == [("pong", b"to-new")]
    assert protos[1].seen == []
    no_errors(rt)


def test_successor_registers_every_pid_its_predecessor_halted(tmp_path):
    rt = _runtime()
    old = RecoverableService(Party(rt.contexts[2]), "svc", KVStore(), str(tmp_path / "a"))
    old.start()
    halted = sorted({old.channel.pid, old.exchange.pid})
    old.shutdown()
    assert rt.routers[2].active_pids == []

    rt.restart(2)
    new = RecoverableService(Party(rt.contexts[2]), "svc", KVStore(), str(tmp_path / "b"))
    new.start()
    assert rt.routers[2].active_pids == halted
    new.shutdown()


def test_a_successor_on_the_old_party_collides(tmp_path):
    rt = _runtime()
    party = Party(rt.contexts[2])
    RecoverableService(party, "svc", KVStore(), str(tmp_path / "a")).shutdown()
    with pytest.raises(PidCollision, match="'svc:rec' was already terminated"):
        RecoverableService(party, "svc", KVStore(), str(tmp_path / "b"))


def test_restart_keeps_the_routers_observers_and_errors():
    rt = _runtime()
    protos = [Echo(ctx) for ctx in rt.contexts]
    Boom(rt.contexts[1], "boom")
    observed = []
    rt.routers[1].observers.append(lambda sender, pid, mtype, p: observed.append(p))
    rt.run_on_node(0, lambda: rt.contexts[0].send(1, "boom", "x", b"before"))
    rt.run()
    assert [pid for pid, _, _ in rt.router_errors()] == ["boom"]

    rt.restart(1)
    Echo(rt.contexts[1])
    rt.run_on_node(0, lambda: protos[0].unicast(1, "ping", b"after"))
    rt.run()
    assert observed == [b"before", b"after"]
    assert [(pid, sender) for pid, sender, _ in rt.router_errors()] == [("boom", 0)]
