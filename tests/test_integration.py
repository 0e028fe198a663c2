"""Grand-tour integration scenarios: the whole stack under combined load,
faults and Byzantine noise at once."""

import pytest

from repro.app.kvstore import ReplicatedKVStore
from repro.core.agreement import ArrayAgreement
from repro.core.channel import AtomicChannel, SecureAtomicChannel
from repro.core.party import make_parties
from repro.crypto.dealer import fast_group
from repro.crypto.params import SecurityParams
from repro.net.costmodel import HYBRID_HOSTS
from repro.net.faults import CrashFault, FaultPlan, TargetedDelayAdversary
from repro.net.latency import hybrid_latency
from repro.net.runtime import SimRuntime

from tests.conftest import cached_group
from tests.core.byz import GarbageSpammer
from tests.helpers import sim_runtime, sync_applied


def test_hybrid_testbed_kvstore_with_crashes_and_delays():
    """The paper's 7-host LAN+Internet testbed, with t = 2 faults used up
    (one crash, one spammer) plus adversarial delays on a third party:
    the replicated KV store still converges."""
    group = cached_group(7, 2)
    faults = FaultPlan(
        adversary=TargetedDelayAdversary(victims={4}, max_delay=0.2),
        crashes=(CrashFault(6),),
    )
    rt = SimRuntime(
        group, latency=hybrid_latency(), hosts=HYBRID_HOSTS,
        seed=1, faults=faults,
    )
    parties = make_parties(rt)
    live = [0, 1, 2, 3, 4]
    replicas = {i: ReplicatedKVStore(parties[i], pid="grand") for i in live}
    # Byzantine party 5 floods the channel pid with garbage of every type
    GarbageSpammer(rt.contexts[5], "grand", ["queue", "junk", "vote"]).start()

    for i in live[:3]:
        replicas[i].put(b"key-%d" % i, b"value-%d" % i)
    replicas[3].cas(b"key-0", b"value-0", b"stolen")

    sync_applied(rt, replicas.values(), 4, limit=5000)

    digests = {rep.state_digest() for rep in replicas.values()}
    assert len(digests) == 1
    assert replicas[0].local_value(b"key-1") == b"value-1"


def test_concurrent_channels_share_one_group():
    """Multiple independent channels (atomic, secure, agreement instances)
    multiplex over the same group, routers and links without interference."""
    rt = sim_runtime(cached_group(), seed=2)
    parties = make_parties(rt)

    atomics = [p.atomic_channel("ch-a") for p in parties]
    secures = [p.secure_atomic_channel("ch-s") for p in parties]
    mvbas = [p.array_agreement("ch-m") for p in parties]

    atomics[0].send(b"plain")
    secures[1].send(b"hidden")
    for i, m in enumerate(mvbas):
        m.propose(b"mv-%d" % i)

    def reader(ch):
        payload = yield ch.receive()
        return payload

    a_procs = [rt.spawn(reader(ch)) for ch in atomics]
    s_procs = [rt.spawn(reader(ch)) for ch in secures]
    for p in a_procs + s_procs:
        rt.run_until(p.future, limit=3000)
    mv = rt.run_all([m.decided for m in mvbas], limit=3000)

    assert {p.future.value for p in a_procs} == {b"plain"}
    assert {p.future.value for p in s_procs} == {b"hidden"}
    assert len({v for v, _ in mv}) == 1
    assert not rt.router_errors()


def test_sequential_channel_generations():
    """Close a channel, then run a successor under a fresh pid — the
    paper's static-group model supports sequential protocol generations."""
    rt = sim_runtime(cached_group(), seed=3)
    parties = make_parties(rt)

    for generation in range(3):
        chans = [p.atomic_channel(f"gen-{generation}") for p in parties]
        chans[generation % 4].send(b"gen %d payload" % generation)
        values = rt.run_all([ch.receive() for ch in chans], limit=3000)
        assert set(values) == {b"gen %d payload" % generation}
        for ch in chans:
            ch.close()
        rt.run_all([ch.closed for ch in chans], limit=3000)
        assert all(ch.is_closed() for ch in chans)


def test_paper_security_config_end_to_end():
    """One full run at the paper's real 1024-bit key sizes (no nominal
    scaling) — slow-ish, so a single delivery only."""
    group = fast_group(4, 1, SecurityParams.paper(), seed=4)
    rt = SimRuntime(group, seed=4)
    chans = [AtomicChannel(ctx, "full-keys") for ctx in rt.contexts]
    chans[0].send(b"1024-bit run")
    values = rt.run_all([ch.receive() for ch in chans], limit=3000)
    assert values == [b"1024-bit run"] * 4
    # real key sizes: the RSA moduli really are 1024 bits
    assert group.party(0).rsa.n.bit_length() == 1024
