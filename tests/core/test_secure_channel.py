"""Secure causal atomic broadcast: confidentiality until ordering,
external senders, ordered decryption."""

import random

import pytest

from repro.common.errors import InvalidCiphertext, ProtocolError
from repro.core.channel import SecureAtomicChannel
from repro.core.channel.atomic import KIND_CIPHER
from repro.crypto.threshold_enc import Ciphertext

from tests.helpers import no_errors, sim_runtime


def _channels(rt, pid="sac", **kwargs):
    return {
        i: SecureAtomicChannel(rt.contexts[i], pid, **kwargs)
        for i in range(rt.group.n)
    }


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


def test_cleartext_delivered_everywhere(group4):
    rt = sim_runtime(group4, seed=1)
    chans = _channels(rt)
    chans[0].send(b"secret message")
    got = _drain(rt, chans, 1)
    assert all(g == [b"secret message"] for g in got.values())
    no_errors(rt)


def test_total_order_of_cleartexts(group4):
    rt = sim_runtime(group4, seed=2)
    chans = _channels(rt)
    for k in range(3):
        chans[k % 4].send(b"s%d" % k)
    got = _drain(rt, chans, 3)
    assert all(g == got[0] for g in got.values())


def test_payload_is_encrypted_on_the_wire(group4):
    """The atomic layer orders ciphertexts: the cleartext never appears in
    a wire record before the decryption round."""
    rt = sim_runtime(group4, seed=3)
    chans = _channels(rt)
    secret = b"very secret payload 1234"
    chans[0].send(secret)
    rt.run(until=0.0)  # let the (scheduled) send API action execute
    # the kind of the queued record is CIPHER and its data != cleartext
    record = chans[0]._own_queue[0]
    assert record[2] == KIND_CIPHER
    assert secret not in record[3]
    got = _drain(rt, chans, 1)
    assert got[1] == [secret]


def test_ciphertext_stream_precedes_cleartext(group4):
    rt = sim_runtime(group4, seed=4)
    chans = _channels(rt)
    ordered = []  # (ciphertext, cleartexts delivered by then)
    chans[0].on_ciphertext = lambda data: ordered.append((data, chans[0].delivered))
    chans[2].send(b"payload")
    got = _drain(rt, chans, 1)
    [(data, delivered)] = ordered
    assert delivered == 0
    ct = Ciphertext.from_bytes(data)
    assert rt.contexts[0].crypto.enc.check_ciphertext(ct)
    assert got[0] == [b"payload"]


def test_external_sender(group4):
    """An entity outside the group encrypts under the channel public key
    and group members broadcast the ciphertext without seeing it."""
    rt = sim_runtime(group4, seed=5)
    chans = _channels(rt)
    scheme = rt.group.enc_public_key  # public info only
    ct = SecureAtomicChannel.encrypt(
        rt.contexts[0].crypto.enc, chans[0].pid, b"from outside", random.Random(9)
    )
    chans[1].send_ciphertext(ct)
    got = _drain(rt, chans, 1)
    assert all(g == [b"from outside"] for g in got.values())
    assert scheme is not None


def test_malformed_external_ciphertext_rejected_eagerly(group4):
    rt = sim_runtime(group4)
    chans = _channels(rt)
    with pytest.raises((InvalidCiphertext, ProtocolError)):
        chans[0].send_ciphertext(b"not a ciphertext")


def test_invalid_ciphertext_skipped_not_stalling(group4):
    """A well-framed but NIZK-invalid ciphertext is delivered as nothing
    and later messages still come through."""
    rt = sim_runtime(group4, seed=6)
    chans = _channels(rt)
    good = SecureAtomicChannel.encrypt(
        rt.contexts[0].crypto.enc, chans[0].pid, b"good", random.Random(1)
    )
    bad_ct = Ciphertext.from_bytes(good)
    forged = Ciphertext(
        c=bad_ct.c, label=bad_ct.label, u=bad_ct.u, ubar=bad_ct.ubar,
        e=(bad_ct.e + 1) % rt.contexts[0].crypto.enc.public.group.q, f=bad_ct.f,
    ).to_bytes()
    # inject the forged ciphertext as if a corrupted member queued it
    rt.run_on_node(0, lambda: chans[0]._enqueue_own(KIND_CIPHER, forged))
    chans[1].send(b"after")
    got = _drain(rt, chans, 1)
    assert all(g == [b"after"] for g in got.values())


def test_close_waits_for_pending_decryptions(group4):
    rt = sim_runtime(group4, seed=7)
    chans = _channels(rt)
    for k in range(2):
        chans[0].send(b"c%d" % k)
    got = _drain(rt, chans, 2)
    assert got[3] == [b"c0", b"c1"]
    for ch in chans.values():
        ch.close()
    rt.run_all([ch.closed for ch in chans.values()], limit=600)
    assert all(ch.is_closed() for ch in chans.values())
    no_errors(rt)


def test_wrong_channel_label_rejected(group4):
    """A ciphertext made for another channel (label mismatch) is skipped."""
    rt = sim_runtime(group4, seed=8)
    chans = _channels(rt)
    foreign = SecureAtomicChannel.encrypt(
        rt.contexts[0].crypto.enc, "another-channel", b"smuggled", random.Random(2)
    )
    rt.run_on_node(0, lambda: chans[0]._enqueue_own(KIND_CIPHER, foreign))
    chans[1].send(b"legit")
    got = _drain(rt, chans, 1)
    assert all(g == [b"legit"] for g in got.values())
