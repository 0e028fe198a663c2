"""Epoch reconfiguration end-to-end under the deterministic simulator.

The acceptance scenarios for dynamic membership:

(a) **proactive refresh on a live group** — shares rotate mid-traffic
    without dropping or reordering a single command;
(b) **exactly-once across the barrier** — an external client stream
    straddling the epoch transition completes with at-most-once
    execution preserved, and the client learns the new epoch from reply
    frames;
(c) **rolling replacement** — a replica dies, the survivors order its
    replacement, and the successor cold-boots from a certified epoch-1
    checkpoint via state transfer;
(d) **WAL replay across the epoch boundary** — a transfer tail that
    spans the barrier replays correctly (roster steps, round numbering
    resets at the barrier), and a whole-group restart resumes from an
    epoch-tagged certified package;
(e) **stale-epoch rejection** — a successor with an epoch floor refuses
    genuinely certified but pre-reconfiguration history.
"""

import pytest

from repro.client.dedup import DedupStateMachine
from repro.client.server import RequestServer
from repro.client.simnet import SimClientNetwork
from repro.common.errors import EpochMismatch, ReconfigInProgress
from repro.core.party import Party, make_parties
from repro.membership import EpochKeychain, Membership, MembershipChange
from repro.obs import MemoryRecorder
from repro.recovery import RecoverableService
from repro.testing.invariants import tap_applies

from tests.helpers import no_errors, sim_runtime, sync_applied
from tests.recovery.test_service_sim import RCounter

pytestmark = pytest.mark.membership


@pytest.fixture(scope="module")
def keychain4(group4):
    return EpochKeychain(group4)


def _service(
    party, tmp_path, keychain, suffix="", state=None, min_epoch=0, **kwargs
):
    kwargs.setdefault("checkpoint_interval", 2)
    kwargs.setdefault("fsync", "always")
    directory = str(tmp_path / f"replica{party.id}{suffix}")
    return RecoverableService(
        party, "svc", state if state is not None else RCounter(), directory,
        membership=Membership(keychain, min_epoch=min_epoch), **kwargs,
    )


def test_proactive_refresh_mid_traffic(group4, keychain4, tmp_path):
    """(a) A live static group rotates its shares without losing a
    command; commands racing the barrier carry over to the new epoch."""
    obs = MemoryRecorder()
    rt = sim_runtime(group4, seed=21, recorder=obs)
    services = [_service(p, tmp_path, keychain4) for p in make_parties(rt)]
    logs = [tap_applies(s) for s in services]
    for s in services:
        s.start()

    for i in range(3):
        services[i % 2].submit(b"add:%d" % (i + 1))
    sync_applied(rt, services, 3)

    assert services[0].membership.refresh_shares() == 1
    # Interleaved traffic: submitted while the reconfig command races
    # through agreement, possibly harvested across the barrier.
    services[1].submit(b"add:10")
    services[2].submit(b"sub:2")
    sync_applied(rt, services, 6)  # 3 + barrier slot + 2
    rt.run()

    assert {s.membership_epoch for s in services} == {1}
    assert {s.membership.roster.members for s in services} == {
        services[0].membership.roster.members
    }
    assert {s.state.value for s in services} == {1 + 2 + 3 + 10 - 2}
    assert len({tuple(log) for log in logs}) == 1

    # The epoch-1 channel is live and epoch-tagged.
    assert all(s.channel.pid == "svc@e1" for s in services)
    services[3].submit(b"add:5")
    sync_applied(rt, services, 7)
    assert {s.state.value for s in services} == {19}

    assert obs.counters["membership.barrier"] == 4.0
    assert obs.counters["membership.reconfig.committed"] == 4.0
    assert obs.counters["membership.reshare.epochs"] == 4.0
    assert obs.gauges["membership.epoch"] == 1.0
    no_errors(rt)


def test_submit_guards_during_and_after_transition(group4, keychain4, tmp_path):
    """Typed errors: ReconfigInProgress inside the barrier window,
    EpochMismatch for epoch-pinned submissions after the cutover."""
    rt = sim_runtime(group4, seed=23)
    services = [_service(p, tmp_path, keychain4) for p in make_parties(rt)]
    for s in services:
        s.start()

    caught = []
    victim = services[2]
    original = victim.channel.on_barrier

    def barrier_probe(round_):
        original(round_)
        # The channel just froze but the barrier command has not drained
        # through the apply FIFO yet: submissions must be refused with
        # the typed retryable error, not silently queued on a dead
        # channel.
        try:
            victim.submit(b"add:99")
        except ReconfigInProgress as exc:
            caught.append(exc)

    victim.channel.on_barrier = barrier_probe

    services[0].submit(b"add:1")
    sync_applied(rt, services, 1)
    services[0].membership.refresh_shares()
    sync_applied(rt, services, 2)
    rt.run()

    assert len(caught) == 1
    assert {s.membership_epoch for s in services} == {1}

    # Epoch-pinned submission against the superseded epoch.
    with pytest.raises(EpochMismatch):
        services[0].submit(b"add:2", epoch=0)
    services[0].submit(b"add:2", epoch=1)
    sync_applied(rt, services, 3)
    assert {s.state.value for s in services} == {3}
    no_errors(rt)


def test_client_stream_exactly_once_across_refresh(group4, keychain4, tmp_path):
    """(b) An external client stream straddles the barrier: every request
    completes, none executes twice, and the reply frames teach the
    client the new epoch."""
    obs = MemoryRecorder()
    rt = sim_runtime(group4, seed=25, recorder=obs)
    parties = make_parties(rt)
    services = [
        _service(p, tmp_path, keychain4, state=DedupStateMachine(RCounter()))
        for p in parties
    ]
    logs = [tap_applies(s) for s in services]
    for s in services:
        s.start()
    net = SimClientNetwork(rt)
    for i, svc in enumerate(services):
        net.attach(i, RequestServer(svc, obs=obs))
    client = net.connect("alice", contact=0, timeout=2.0, seed=25)

    results = []
    total = 0
    for i in range(3):
        fut = client.submit(b"add:%d" % (i + 1))
        results.append(rt.run_until(fut, limit=600))
        total += i + 1
    assert client.membership_epoch == 0

    # Refresh commits somewhere inside the ongoing stream.
    services[1].membership.refresh_shares()
    for i in range(3, 8):
        fut = client.submit(b"add:%d" % (i + 1))
        results.append(rt.run_until(fut, limit=600))
        total += i + 1
    rt.run()

    # Every request resolved with the running-counter value: a dropped,
    # duplicated, or reordered command would break the sequence.
    running = 0
    for i, result in enumerate(results):
        running += i + 1
        assert result == str(running).encode()
    assert {s.state.inner.value for s in services} == {total}
    assert len({tuple(log) for log in logs}) == 1

    # The reply frames carried the new membership view to the client.
    assert client.membership_epoch == 1
    assert client.roster_digest == services[0].membership.roster.short_digest()
    assert obs.counters["client.membership.refreshes"] == 1.0
    assert {s.membership_epoch for s in services} == {1}
    no_errors(rt)


def test_rolling_replacement_via_state_transfer(group4, keychain4, tmp_path):
    """(c) Replace a dead replica through the total order; the successor
    onboards from a certified epoch-1 checkpoint and participates."""
    obs = MemoryRecorder()
    rt = sim_runtime(group4, seed=27, recorder=obs)
    services = [_service(p, tmp_path, keychain4) for p in make_parties(rt)]
    for s in services:
        s.start()

    for i in range(4):
        services[i % 3].submit(b"add:%d" % (i + 1))
    sync_applied(rt, services, 4)
    rt.run()

    # Replica 3 dies; the survivors (n - t = 3) stay live.
    services[3].shutdown()
    live = services[:3]

    assert live[0].membership.reconfigure(
        MembershipChange("replace", slot=3, member="fresh-3")) == 1
    live[1].submit(b"add:100")
    sync_applied(rt, live, 6)
    rt.run()
    assert {s.membership_epoch for s in live} == {1}
    assert {s.membership.roster.members[3] for s in live} == {"fresh-3"}

    # The successor is a new process for slot 3: empty directory, only
    # the group identity and the epoch floor.
    rt.restart(3)
    successor = _service(Party(rt.contexts[3]), tmp_path, keychain4,
                         suffix="-successor", min_epoch=1)
    stats = rt.run_until(successor.recover(), limit=9000.0)
    assert stats["seq"] >= 5  # at least the forced barrier checkpoint
    assert successor.membership_epoch == 1
    assert successor.membership.roster.members[3] == "fresh-3"
    assert successor.last_state_digest() == live[0].last_state_digest()
    assert successor.channel.pid == "svc@e1"

    # It participates: its own sends are ordered under epoch 1.
    successor.submit(b"sub:7")
    everyone = live + [successor]
    sync_applied(rt, everyone, 7)
    rt.run()
    assert {s.state.value for s in everyone} == {1 + 2 + 3 + 4 + 100 - 7}
    assert len({s.last_state_digest() for s in everyone}) == 1
    assert obs.counters["recovery.transfer.adopted"] == 1.0
    no_errors(rt)


def test_transfer_tail_replays_across_the_barrier(group4, keychain4, tmp_path):
    """(d) A joiner whose transfer tail spans the barrier replays the
    roster step and the round-numbering reset correctly.

    Checkpoint certification is suppressed on the serving replicas, so
    the transfer base is the uncertified genesis and the tail carries
    epoch-0 slots, the barrier slot, and epoch-1 slots in one list —
    the window that exists in production between barrier delivery and
    certificate assembly."""
    rt = sim_runtime(group4, seed=29)
    parties = make_parties(rt)
    services = [_service(p, tmp_path, keychain4) for p in parties[:3]]
    for s in services:
        s.start()
        s._maybe_checkpoint = lambda *a, **k: None  # never certify

    for i in range(3):
        services[i].submit(b"add:%d" % (i + 1))
    sync_applied(rt, services, 3)
    services[0].membership.refresh_shares()
    services[1].submit(b"add:10")
    sync_applied(rt, services, 5)
    rt.run()
    assert {s.membership_epoch for s in services} == {1}

    joiner = _service(parties[3], tmp_path, keychain4)
    stats = rt.run_until(joiner.recover(), limit=9000.0)
    assert stats["seq"] == 0  # uncertified genesis base
    assert stats["tail_slots"] == 5
    assert joiner.membership_epoch == 1
    assert joiner.state.value == 1 + 2 + 3 + 10
    assert joiner.last_state_digest() == services[0].last_state_digest()
    assert joiner.channel.pid == "svc@e1"

    joiner.submit(b"add:4")
    everyone = services + [joiner]
    sync_applied(rt, everyone, 6)
    assert {s.state.value for s in everyone} == {20}
    no_errors(rt)


def test_group_restart_resumes_epoch_from_durable_state(
    group4, keychain4, tmp_path
):
    """(d) After a clean whole-group shutdown beyond a barrier, every
    replica resumes at the reconfigured epoch from its own disk: the
    certified package carries (epoch, roster) and the WAL tail replays
    under the epoch-1 channel."""
    rt = sim_runtime(group4, seed=31)
    services = [
        _service(p, tmp_path, keychain4, checkpoint_interval=100)
        for p in make_parties(rt)
    ]
    for s in services:
        s.start()
    for i in range(2):
        services[i].submit(b"add:%d" % (i + 1))
    sync_applied(rt, services, 2)
    services[2].membership.refresh_shares()
    sync_applied(rt, services, 3)
    services[0].submit(b"add:5")  # epoch-1 tail slot beyond the checkpoint
    sync_applied(rt, services, 4)
    rt.run()  # drain the forced barrier-checkpoint certification
    assert {s.last_certified for s in services} == {3}
    digest = services[0].last_state_digest()
    for s in services:
        s.release()

    rt2 = sim_runtime(group4, seed=32)
    revived = [
        _service(p, tmp_path, keychain4, checkpoint_interval=100)
        for p in make_parties(rt2)
    ]
    for s in revived:
        s.start()
    assert {s.membership_epoch for s in revived} == {1}
    assert {s.membership.min_epoch for s in revived} == {1}  # epoch.json floor
    assert {s.applied_seq for s in revived} == {4}
    assert {s.last_state_digest() for s in revived} == {digest}
    assert all(s.channel.pid == "svc@e1" for s in revived)

    revived[1].submit(b"sub:1")
    sync_applied(rt2, revived, 5)
    assert {s.state.value for s in revived} == {1 + 2 + 5 - 1}
    no_errors(rt2)


def test_epoch_floor_rejects_stale_certified_history(
    group4, keychain4, tmp_path
):
    """(e) A successor with min_epoch=1 refuses perfectly certified
    epoch-0 history — a mobile adversary cannot roll it back behind the
    reconfiguration — and adopts as soon as the group really is at
    epoch 1."""
    obs = MemoryRecorder()
    rt = sim_runtime(group4, seed=33, recorder=obs)
    parties = make_parties(rt)
    services = [_service(p, tmp_path, keychain4) for p in parties[:3]]
    for s in services:
        s.start()
    for i in range(4):
        services[i % 3].submit(b"add:%d" % (i + 1))
    sync_applied(rt, services, 4)
    rt.run()
    assert {s.last_certified for s in services} == {4}

    # The group is still at epoch 0: every (genuinely certified!)
    # transfer response lands below the successor's floor.
    successor = _service(parties[3], tmp_path, keychain4, min_epoch=1)
    future = successor.recover()
    rt.run(until=rt.now + 100.0)
    assert not successor.recovered
    assert obs.counters["membership.transfer.stale_epoch"] >= 3
    assert obs.counters["recovery.transfer.rejected"] >= 3

    # Once the group reconfigures, the retry loop adopts epoch 1.
    services[0].membership.refresh_shares()
    sync_applied(rt, services, 5)
    stats = rt.run_until(future, limit=9000.0)
    assert stats["seq"] == 5
    assert successor.membership_epoch == 1
    assert successor.last_state_digest() == services[0].last_state_digest()
    no_errors(rt)


def test_start_refuses_local_state_below_floor(group4, keychain4, tmp_path):
    """(e) The floor also guards the local path: a wiped successor that
    only knows its epoch floor must not go live from (empty or stale)
    local durable state — start() refuses, pointing at recover()."""
    rt = sim_runtime(group4, seed=35)
    parties = make_parties(rt)
    with pytest.raises(EpochMismatch):
        _service(parties[0], tmp_path, keychain4, min_epoch=1).start()
