"""A reconfiguration command that lost the race for its epoch is a no-op
live, on WAL replay and on state transfer alike.

Two replicas submit ``refresh_shares()`` in epoch 0; one commits as the
barrier, the other is delivered in epoch 1 as a stale command.  Live it
never reaches the state machine.  Before ``repro.recovery.history.fold``
became the only walk over a slot sequence, the replay and transfer walks
handed it to ``apply`` — a restarted or recovered replica diverged from
the group that never stopped (live ``seen = 2``, restarted ``seen = 3``).
"""

import pytest

from repro.app.replication import StateMachine
from repro.common.encoding import decode, encode
from repro.core.party import Party, make_parties
from repro.membership import EpochKeychain, Membership
from repro.obs import MemoryRecorder
from repro.recovery import RecoverableService

from tests.helpers import no_errors, sim_runtime, sync_applied

pytestmark = pytest.mark.membership


class Seen(StateMachine):
    """Counts every command it is handed, whatever it is."""

    def __init__(self):
        self.seen = 0

    def apply(self, command: bytes) -> bytes:
        self.seen += 1
        return b"%d" % self.seen

    def snapshot(self) -> bytes:
        return encode(self.seen)

    def restore(self, snapshot: bytes) -> None:
        self.seen = decode(snapshot)


def _service(party, tmp_path, keychain, suffix="", **kwargs):
    return RecoverableService(
        party, "svc", Seen(), str(tmp_path / f"replica{party.id}{suffix}"),
        checkpoint_interval=100, fsync="always",
        membership=Membership(keychain, **kwargs),
    )


def _view(svc):
    return (svc.membership_epoch, svc.applied_seq, svc.state.seen)


def _race(rt, obs, services):
    """One command, two racing refreshes, one more command: four slots,
    two of which the state machine may see."""
    services[0].submit(b"one")
    sync_applied(rt, services, 1)
    assert services[0].membership.refresh_shares() == 1
    assert services[1].membership.refresh_shares() == 1
    sync_applied(rt, services, 3)
    services[2].submit(b"two")
    sync_applied(rt, services, 4)
    rt.run()
    assert obs.counters["membership.reconfig.committed"] == len(services)
    assert obs.counters["membership.reconfig.stale"] == len(services)
    assert {_view(s) for s in services} == {(1, 4, 2)}


def test_cold_start_skips_the_stale_command(group4, tmp_path):
    keychain = EpochKeychain(group4)
    obs = MemoryRecorder()
    rt = sim_runtime(group4, seed=41, recorder=obs)
    services = [_service(p, tmp_path, keychain) for p in make_parties(rt)]
    for s in services:
        s.start()
    _race(rt, obs, services)
    live = {_view(s) for s in services}
    digest = services[0].last_state_digest()
    for s in services:
        s.release()

    rt2 = sim_runtime(group4, seed=42)
    restarted = [_service(p, tmp_path, keychain) for p in make_parties(rt2)]
    for s in restarted:
        s.start()
    assert {_view(s) for s in restarted} == live
    assert {s.last_state_digest() for s in restarted} == {digest}
    no_errors(rt)


def test_state_transfer_skips_the_stale_command(group4, tmp_path):
    keychain = EpochKeychain(group4)
    obs = MemoryRecorder()
    rt = sim_runtime(group4, seed=43, recorder=obs)
    services = [_service(p, tmp_path, keychain) for p in make_parties(rt)]
    for s in services:
        s.start()
    # Replica 3 goes away before the race; its successor is a new process.
    services[3].shutdown()
    live = services[:3]
    _race(rt, obs, live)

    rt.restart(3)
    successor = _service(
        Party(rt.contexts[3]), tmp_path, keychain, suffix="-new", min_epoch=1
    )
    stats = rt.run_until(successor.recover(), limit=9000.0)
    assert stats["applied_seq"] == 4
    assert _view(successor) == _view(live[0])
    assert successor.last_state_digest() == live[0].last_state_digest()
    no_errors(rt)
