"""Replicated key-value store: replica equality, command semantics."""

import gc
import tracemalloc

import pytest

from repro.app.kvstore import KVStore, ReplicatedKVStore
from repro.core.party import make_parties
from repro.net.sim import SimQueue
from repro.testing.invariants import tap_applies

from tests.helpers import no_errors, sim_runtime, sync_applied


# -- the bare state machine ------------------------------------------------------


def test_put_get_del():
    kv = KVStore()
    assert kv.apply(KVStore.cmd_put(b"k", b"v1")) == b""
    assert kv.apply(KVStore.cmd_get(b"k")) == b"v1"
    assert kv.apply(KVStore.cmd_put(b"k", b"v2")) == b"v1"
    assert kv.apply(KVStore.cmd_del(b"k")) == b"v2"
    assert kv.apply(KVStore.cmd_get(b"k")) == b""


def test_cas():
    kv = KVStore()
    kv.apply(KVStore.cmd_put(b"k", b"a"))
    assert kv.apply(KVStore.cmd_cas(b"k", b"a", b"b")) == b"ok"
    assert kv.apply(KVStore.cmd_cas(b"k", b"a", b"c")) == b"fail"
    assert kv.data[b"k"] == b"b"


def test_malformed_commands_safe():
    kv = KVStore()
    assert kv.apply(b"\x00junk") == b"error:malformed"
    from repro.common.encoding import encode

    assert kv.apply(encode(("put", b"k"))) == b"error:malformed"  # arity
    assert kv.apply(encode(("frobnicate", b"k"))) == b"error:unknown-op"
    assert kv.data == {}


def test_snapshot_deterministic():
    a, b = KVStore(), KVStore()
    a.apply(KVStore.cmd_put(b"x", b"1"))
    a.apply(KVStore.cmd_put(b"y", b"2"))
    b.apply(KVStore.cmd_put(b"y", b"2"))
    b.apply(KVStore.cmd_put(b"x", b"1"))
    assert a.snapshot() == b.snapshot()  # order-insensitive state
    assert a.digest() == b.digest()


# -- replication over the atomic channel ---------------------------------------------


def _replicas(rt, secure=False):
    return [
        ReplicatedKVStore(p, pid="kv", secure=secure)
        for p in make_parties(rt)
    ]


def test_replicas_converge(group4):
    rt = sim_runtime(group4, seed=1)
    reps = _replicas(rt)
    logs = [tap_applies(r) for r in reps]
    reps[0].put(b"a", b"1")
    reps[1].put(b"b", b"2")
    reps[2].cas(b"a", b"", b"ignored")  # ordering decides cas outcome
    sync_applied(rt, reps, 3)
    digests = {r.state_digest() for r in reps}
    assert len(digests) == 1
    assert len({tuple(log) for log in logs}) == 1
    no_errors(rt)


def test_conflicting_cas_resolved_identically(group4):
    """Two replicas CAS the same key: total order makes exactly one win,
    and every replica agrees which."""
    rt = sim_runtime(group4, seed=2)
    reps = _replicas(rt)
    log = tap_applies(reps[0])
    reps[0].put(b"lock", b"free")
    sync_applied(rt, reps, 1)
    reps[1].cas(b"lock", b"free", b"holder-1")
    reps[2].cas(b"lock", b"free", b"holder-2")
    sync_applied(rt, reps, 3)
    winners = {r.local_value(b"lock") for r in reps}
    assert len(winners) == 1
    assert winners.pop() in (b"holder-1", b"holder-2")
    outcomes = [res for _, res in log[-2:]]
    assert sorted(outcomes) == [b"fail", b"ok"]


def test_secure_replication(group4):
    """State-machine replication over the secure causal channel."""
    rt = sim_runtime(group4, seed=3)
    reps = _replicas(rt, secure=True)
    reps[0].put(b"secret", b"v")
    sync_applied(rt, reps, 1)
    assert all(r.local_value(b"secret") == b"v" for r in reps)
    no_errors(rt)


def test_secure_replicas_keep_no_ordered_ciphertext(group4):
    """An ordered ciphertext goes to the channel's ``on_ciphertext``
    listener, if any, and is not kept: once every command applied, no
    replica's channel holds a ciphertext, pending or queued."""
    rt = sim_runtime(group4, seed=6)
    reps = _replicas(rt, secure=True)
    for k in range(12):
        reps[k % 4].put(b"k%d" % k, b"v")
    sync_applied(rt, reps, 12)
    for r in reps:
        ch = r.channel
        assert ch._pending_ctxt == {}
        queued = {
            name: len(q) for name, q in vars(ch).items() if isinstance(q, SimQueue)
        }
        assert not any(queued.values()), queued
    no_errors(rt)


def test_read_your_writes_in_order(group4):
    rt = sim_runtime(group4, seed=4)
    reps = _replicas(rt)
    log = tap_applies(reps[2])
    reps[0].put(b"k", b"1")
    reps[0].get(b"k")
    sync_applied(rt, reps, 2)
    # the get was ordered after the put from the same client
    assert log[-1][1] == b"1"


def test_close(group4):
    rt = sim_runtime(group4, seed=5)
    reps = _replicas(rt)
    reps[0].put(b"k", b"v")
    sync_applied(rt, reps, 1)
    for r in reps:
        r.close()
    rt.run_all([r.channel.closed for r in reps], limit=600)
    assert all(r.channel.is_closed() for r in reps)


def test_applied_commands_are_not_retained(group4):
    """Replicas hand each delivered command on and keep no history: over
    400 overwrites of one key the traced heap grows by less than a
    bound per replica per command.

    Measured on this workload (CPython 3.11): 787 B per replica per
    command when the channel kept a delivery list and an undrained output
    queue and the service a command log, 35 B without them (what remains
    is per-round protocol bookkeeping); the bound sits between."""
    bound = 300  # bytes per replica per command
    rt = sim_runtime(group4, seed=1)
    reps = [ReplicatedKVStore(p, pid="kv", max_batch=64) for p in make_parties(rt)]
    heap = {}
    tracemalloc.start()
    try:
        done = 0
        for mark in (200, 600):
            while done < mark:
                for k in range(100):
                    reps[(done + k) % 4].put(b"key", bytes([k]) * 256)
                done += 100
                sync_applied(rt, reps, done)
                rt.run(until=rt.now + 2.0)  # let the round's traffic settle
            gc.collect()
            heap[mark] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    growth = (heap[600] - heap[200]) / 400 / len(reps)
    assert growth < bound, f"{growth:.0f} B retained per replica per command"
    assert len({r.state_digest() for r in reps}) == 1
