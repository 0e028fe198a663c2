"""Bracha reliable broadcast: happy path, agreement under equivocation,
crash tolerance, API contract."""

import pytest

from repro.common.encoding import encode
from repro.common.errors import ProtocolError
from repro.core.broadcast import ReliableBroadcast
from repro.net import links
from repro.net.faults import CrashFault, FaultPlan
from repro.net.message import pack_body

from tests.conftest import cached_group
from tests.core.byz import EquivocatingBroadcastSender, GarbageSpammer, SilentParty
from tests.helpers import no_errors, print_repro, sim_runtime


def _rbcs(rt, basepid="rbc", sender=0, parties=None):
    parties = parties if parties is not None else range(rt.group.n)
    return {i: ReliableBroadcast(rt.contexts[i], basepid, sender) for i in parties}


def test_all_honest_deliver_same(group4):
    rt = sim_runtime(group4)
    rbcs = _rbcs(rt)
    rbcs[0].send(b"payload")
    values = rt.run_all([r.delivered for r in rbcs.values()])
    assert values == [b"payload"] * 4
    no_errors(rt)


def test_every_party_can_be_sender(group4):
    rt = sim_runtime(group4)
    for sender in range(4):
        rbcs = _rbcs(rt, basepid=f"rbc{sender}", sender=sender)
        rbcs[sender].send(b"from %d" % sender)
        values = rt.run_all([r.delivered for r in rbcs.values()])
        assert set(values) == {b"from %d" % sender}


def test_large_payload(group4):
    rt = sim_runtime(group4)
    rbcs = _rbcs(rt)
    blob = bytes(range(256)) * 64
    rbcs[0].send(blob)
    assert rt.run_all([r.delivered for r in rbcs.values()]) == [blob] * 4


def test_only_sender_may_send(group4):
    rt = sim_runtime(group4)
    rbcs = _rbcs(rt)
    with pytest.raises(ProtocolError):
        rbcs[1].send(b"not mine")


def test_send_exactly_once(group4):
    rt = sim_runtime(group4)
    rbcs = _rbcs(rt)
    rbcs[0].send(b"a")
    with pytest.raises(ProtocolError):
        rbcs[0].send(b"b")


def test_payload_must_be_bytes(group4):
    rt = sim_runtime(group4)
    rbcs = _rbcs(rt)
    with pytest.raises(ProtocolError):
        rbcs[0].send("string")  # type: ignore[arg-type]


def test_delivers_with_one_crashed_receiver(group4):
    """t = 1 crash among the receivers does not block delivery."""
    rt = sim_runtime(group4, faults=FaultPlan(crashes=(CrashFault(3),)))
    rbcs = _rbcs(rt)
    rbcs[0].send(b"x")
    values = rt.run_all([rbcs[i].delivered for i in range(3)])
    assert values == [b"x"] * 3


def test_crashed_sender_no_delivery(group4):
    """A sender that crashes before sending: nobody delivers, nobody hangs."""
    rt = sim_runtime(group4, faults=FaultPlan(crashes=(CrashFault(0),)))
    rbcs = _rbcs(rt)
    rbcs[0].send(b"x")
    rt.run(until=60)
    assert not any(rbcs[i].delivered.done for i in range(1, 4))


def test_agreement_under_equivocating_sender(group4):
    """Byzantine sender: honest parties never deliver conflicting values."""
    for split in (1, 2, 3):
        rt = sim_runtime(group4, seed=split)
        honest = _rbcs(rt, basepid="eq", sender=0, parties=[1, 2, 3])
        byz = EquivocatingBroadcastSender(
            rt.contexts[0], "eq.0", b"AAAA", b"BBBB", split
        )
        byz.start()
        rt.run(until=60)
        delivered = [
            r.payload for r in honest.values() if r.payload is not None
        ]
        assert len(set(delivered)) <= 1, "agreement violated"


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
def test_forged_self_ready_delivers_nothing(n, t, fuzz_seed):
    """The sender never sends.  Each of the t intruders hands every honest
    party a "ready" claiming to be that party's own, next to its genuine
    one: if the claim counted, t + 1 readies would make every honest party
    amplify and then deliver a payload nobody broadcast."""
    group = cached_group(n, t)
    rt = sim_runtime(group, seed=fuzz_seed)
    honest = _rbcs(rt, parties=range(n - t))
    body = pack_body(honest[0].pid, "ready", b"never sent by party 0")

    def attack(intruder):
        for v in honest:
            rt.nodes[intruder].emit(v, encode((v, b"", body)))
            rt.nodes[intruder].emit(v, links.seal(group.party(intruder), v, body))

    for intruder in range(n - t, n):
        rt.run_on_node(intruder, lambda i=intruder: attack(i))
    rt.run(until=5.0)
    try:
        assert [r.payload for r in honest.values()] == [None] * (n - t)
        assert rt.auth_failures == t * (n - t)
        no_errors(rt)
    except AssertionError:
        print_repro(fuzz_seed)
        raise


def test_garbage_messages_ignored(group4):
    rt = sim_runtime(group4)
    honest = _rbcs(rt, basepid="spam", sender=1, parties=[1, 2, 3])
    GarbageSpammer(rt.contexts[0], "spam.1", ["send", "echo", "ready"]).start()
    honest[1].send(b"real")
    values = rt.run_all([r.delivered for r in honest.values()])
    assert values == [b"real"] * 3


def test_silent_party_does_not_block(group4):
    rt = sim_runtime(group4)
    honest = _rbcs(rt, parties=[0, 1, 2])
    SilentParty(rt.contexts[3], "rbc.0")
    honest[0].send(b"x")
    assert rt.run_all([r.delivered for r in honest.values()]) == [b"x"] * 3


def test_seven_party_group(group7):
    rt = sim_runtime(group7)
    rbcs = _rbcs(rt)
    rbcs[0].send(b"seven")
    assert rt.run_all([r.delivered for r in rbcs.values()]) == [b"seven"] * 7


def test_seven_party_with_two_crashes(group7):
    rt = sim_runtime(
        group7, faults=FaultPlan(crashes=(CrashFault(5), CrashFault(6)))
    )
    rbcs = _rbcs(rt)
    rbcs[0].send(b"x")
    values = rt.run_all([rbcs[i].delivered for i in range(5)])
    assert values == [b"x"] * 5


def test_can_receive_and_get_sender(group4):
    rt = sim_runtime(group4)
    rbcs = _rbcs(rt, sender=2)
    assert rbcs[0].get_sender() == 2
    assert not rbcs[0].can_receive()
    rbcs[2].send(b"x")
    rt.run_until(rbcs[0].delivered)
    assert rbcs[0].can_receive()
