"""Adversarial tests for the secure causal atomic channel."""

import random

import pytest

from repro.core.channel import AtomicChannel, SecureAtomicChannel
from repro.core.protocol import Protocol
from repro.experiments import INTERNET_SETUP
from repro.net.runtime import SimRuntime
from repro.testing.invariants import tap

from tests.helpers import sim_runtime


def _channels(rt, pid="sadv", parties=None):
    parties = parties if parties is not None else range(rt.group.n)
    return {i: SecureAtomicChannel(rt.contexts[i], pid) for i in parties}


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


def test_forged_decryption_shares_tolerated(group4):
    """A corrupted party floods forged decryption shares; honest shares
    still decrypt and the total order stands."""
    rt = sim_runtime(group4, seed=1)
    honest = _channels(rt, parties=[0, 1, 2])

    class ShareForger(Protocol):
        """Party 3: spams bogus decryption shares for every index."""

        def on_message(self, sender, mtype, payload):
            if mtype == "queue":  # piggyback on channel traffic to time spam
                for index in range(4):
                    self.send_all("dec", (index, b"forged-share"))

    ShareForger(rt.contexts[3], "sadv")
    honest[0].send(b"protected")
    got = _drain(rt, honest, 1)
    assert all(g == [b"protected"] for g in got.values())


def test_replayed_ciphertext_is_separate_delivery(group4):
    """A corrupted party re-broadcasting an observed ciphertext under its
    own identity yields a *second* delivery of the same cleartext (the
    weaker integrity of Sec. 2.5/2.6) — but cannot alter the content:
    CCA2 prevents crafting a *related* ciphertext."""
    rt = sim_runtime(group4, seed=2)
    chans = _channels(rt)
    # the adversary captures the ciphertext and replays it verbatim
    captured = []
    chans[2].on_ciphertext = captured.append
    chans[0].send(b"original bid")
    got = _drain(rt, chans, 1)
    assert got[1] == [b"original bid"]
    from repro.core.channel.atomic import KIND_CIPHER

    rt.run_on_node(3, lambda: chans[3]._enqueue_own(KIND_CIPHER, captured[0]))
    got2 = _drain(rt, chans, 1)
    # delivered again (replay detection is the application's business, as
    # the paper's end-to-end argument says), content unmodified
    assert all(g == [b"original bid"] for g in got2.values())


def test_mauled_ciphertext_discarded(group4):
    """Bit-flipping a captured ciphertext breaks its NIZK: the slot is
    skipped, later traffic unaffected."""
    rt = sim_runtime(group4, seed=3)
    chans = _channels(rt)
    ct = SecureAtomicChannel.encrypt(
        rt.contexts[0].crypto.enc, chans[0].pid, b"target", random.Random(4)
    )
    mauled = bytes([ct[0] ^ 0xFF]) + ct[1:]
    from repro.core.channel.atomic import KIND_CIPHER

    rt.run_on_node(3, lambda: chans[3]._enqueue_own(KIND_CIPHER, mauled))
    chans[1].send(b"after the maul")
    got = _drain(rt, chans, 1)
    assert all(g == [b"after the maul"] for g in got.values())


@pytest.mark.parametrize("seed", [1, 5])
def test_plain_records_cannot_reorder_honest_outputs(group4, seed):
    """Party 2 runs a plain atomic channel on the secure channel's pid, so
    its records are ordered as cleartext.  A ciphertext ordered just
    before one of them waits for ``t + 1`` decryption shares; a party
    already holding shares from faster peers would release it before the
    plain record, every other party after.  Only a valid ciphertext
    delivers anything: the honest outputs agree, and the plain records
    are delivered as nothing."""
    rt = SimRuntime(
        group4, latency=INTERNET_SETUP.latency(), hosts=INTERNET_SETUP.hosts,
        seed=seed,
    )
    chans = {
        i: (AtomicChannel if i == 2 else SecureAtomicChannel)(rt.contexts[i], "sec")
        for i in range(4)
    }
    for i, ch in chans.items():
        for k in range(6):
            ch.send(b"p%d-%d" % (i, k))
    honest = {i: chans[i] for i in (0, 1, 3)}
    logs = [tap(ch) for ch in honest.values()]
    _drain(rt, honest, 18)
    rt.run(until=rt.now + 60.0)  # room for anything delivered past the 18th
    outputs = [[data for _, _, data in log] for log in logs]
    assert outputs[0] == outputs[1] == outputs[2]
    assert sorted(outputs[0]) == sorted(b"p%d-%d" % (i, k) for i in honest for k in range(6))
    # party 2's plain channel refuses the decryption shares it does not
    # speak; the honest routers refuse nothing
    assert all(not rt.routers[i].errors for i in honest)
    assert {exc.mtype for _, _, exc in rt.routers[2].errors} == {"dec"}
