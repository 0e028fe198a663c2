"""A channel that continues a predecessor: ``ChannelResume`` is the only
way in, ``harvest_resume()`` the only way out of a frozen channel."""

import pytest

from repro.common.errors import ProtocolError
from repro.common.runs import Runs
from repro.core.channel.atomic import KIND_APP, AtomicChannel, ChannelResume
from repro.testing.invariants import tap

from tests.helpers import no_errors, sim_runtime


def _read(rt, channels, expect, limit=3000):
    got = {i: [] for i in channels}

    def reader(i, ch):
        while len(got[i]) < expect:
            got[i].append((yield ch.receive()))

    for proc in [rt.spawn(reader(i, ch)) for i, ch in channels.items()]:
        rt.run_until(proc.future, limit=limit)
    rt.run()
    return got


def test_resume_round_must_be_positive():
    with pytest.raises(ProtocolError):
        ChannelResume(round=0)
    assert ChannelResume().round == 1


def test_carried_records_reenter_agreement_without_a_send(group4):
    """Own records re-emit from the own queue, foreign ones from the
    adoption pool; a key already delivered is dropped on the way in and
    never delivered again."""
    rt = sim_runtime(group4, seed=61)
    delivered = Runs(((0, 0),))
    old = (0, 0, KIND_APP, b"old")
    resumes = {
        0: ChannelResume(
            round=3, delivered=delivered, next_seq=2,
            own_records=(old, (0, 1, KIND_APP, b"kept")),
        ),
        1: ChannelResume(round=3, delivered=delivered, pending=(old,)),
        # origin 1 itself no longer holds (1, 5); party 2 adopted it
        2: ChannelResume(
            round=3, delivered=delivered,
            pending=(old, (1, 5, KIND_APP, b"adopted")),
        ),
        3: ChannelResume(round=3, delivered=delivered),
    }
    slots = []
    chans = {}
    for i, resume in resumes.items():
        chans[i] = AtomicChannel(rt.contexts[i], "at", resume=resume)
        assert chans[i].round == 3 and chans[i].slots_delivered == 1
    chans[3].on_slot = lambda *slot: slots.append(slot[:4])

    got = _read(rt, chans, 2)
    assert sorted(got[0]) == [b"adopted", b"kept"]
    assert all(g == got[0] for g in got.values())
    # slot indices continue after the resumed prefix
    assert [slot[0] for slot in slots] == [1, 2]
    assert sorted(slot[1:] for slot in slots) == [(0, 1, KIND_APP), (1, 5, KIND_APP)]
    assert all(
        ch.harvest_resume().delivered == Runs(((0, 0), (0, 1), (1, 5)))
        for ch in chans.values()
    )

    # the own sequence counter continues where the predecessor stopped
    chans[0].send(b"fresh")
    assert _read(rt, chans, 1)[2] == [b"fresh"]
    assert (0, 2) in chans[1].harvest_resume().delivered
    no_errors(rt)


def test_harvest_of_a_frozen_channel_round_trips(group4):
    """Freeze at a barrier record mid-traffic, harvest, reopen under a new
    pid: every accepted payload is delivered exactly once, in one order."""
    rt = sim_runtime(group4, seed=62)
    frozen_at = {}
    chans = {}
    for i in range(4):
        ch = chans[i] = AtomicChannel(rt.contexts[i], "at", max_batch=4)
        ch.barrier_predicate = lambda data: data == b"BARRIER"
        ch.on_barrier = lambda round_, i=i: frozen_at.setdefault(i, round_)
    logs = {i: tap(ch) for i, ch in chans.items()}
    sent = [b"m%d-%d" % (s, k) for k in range(3) for s in range(4)]
    for k in range(3):
        for s in range(4):
            chans[s].send(b"m%d-%d" % (s, k))
        if k == 0:
            chans[1].send(b"BARRIER")
    rt.run()
    assert sorted(frozen_at) == [0, 1, 2, 3]
    before = [payload for _o, _s, payload in logs[0]]
    assert before[-1] == b"BARRIER"
    assert all([p for _o, _s, p in log] == before for log in logs.values())
    assert len(before) < len(sent) + 1, "the barrier cut the traffic"

    successors = {}
    for i, ch in chans.items():
        resume = ch.harvest_resume()
        assert resume.round == 1
        assert len(resume.delivered) == len(before)
        assert resume.next_seq == (4 if i == 1 else 3)
        ch.abort()
        nxt = successors[i] = AtomicChannel(
            rt.contexts[i], "at@e1", max_batch=4, resume=resume
        )
        ch.successor = nxt
        assert nxt.slots_delivered == len(before)

    rest = len(sent) + 1 - len(before)
    got = _read(rt, successors, rest)
    assert all(g == got[0] for g in got.values())
    assert sorted(before + got[0]) == sorted(sent + [b"BARRIER"])
    assert all(nxt.slots_delivered == len(sent) + 1 for nxt in successors.values())
    no_errors(rt)
