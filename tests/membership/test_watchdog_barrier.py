"""An epoch barrier must not be reported as a liveness stall.

The reconfiguration barrier freezes the channel (no deliveries, no
applied commands) while the roster steps and shares rotate — a
report-mode :class:`~repro.adversary.watchdog.LivenessWatchdog` watching
service sentinels would see exactly the fingerprint freeze it exists to
flag.  The membership service therefore exports its barrier/epoch edges
(``epoch_listeners``), and the watchdog pairs them with
:meth:`~repro.adversary.watchdog.LivenessWatchdog.suspend` /
:meth:`~repro.adversary.watchdog.LivenessWatchdog.resume`: expected
silence is masked, *unexpected* silence still trips the alarm.
"""

import pytest

from repro.adversary.watchdog import LivenessWatchdog, sentinel_for
from repro.core.party import make_parties
from repro.membership import EpochKeychain, Membership
from repro.obs import MemoryRecorder
from repro.recovery import RecoverableService

from tests.helpers import sim_runtime, sync_applied
from tests.recovery.test_service_sim import RCounter

pytestmark = pytest.mark.membership


def _build(group, tmp_path, obs, deadline=6.0):
    rt = sim_runtime(group, seed=31, recorder=obs)
    keychain = EpochKeychain(group)
    services = []
    for party in make_parties(rt):
        svc = RecoverableService(
            party, "svc", RCounter(),
            str(tmp_path / f"replica{party.id}"),
            checkpoint_interval=2, fsync="never",
            membership=Membership(keychain),
        )
        svc.start()
        services.append(svc)
    watchdog = LivenessWatchdog(
        deadline=deadline, recorder=obs, raise_on_stall=False
    )
    for i, svc in enumerate(services):
        watchdog.watch(sentinel_for(f"svc[{i}]", i, svc))
    watchdog.attach(rt)
    watchdog.arm()
    return rt, services, watchdog


def _wire_barrier_suspension(services, watchdog):
    for svc in services:
        svc.membership.listeners.append(
            lambda event, _value: (
                watchdog.suspend() if event == "barrier" else watchdog.resume()
            )
        )


def test_epoch_barrier_is_not_a_stall(group4, tmp_path):
    """A reconfiguration passing through — barrier, roster step, share
    rotation — produces zero stall reports on a suspension-wired
    watchdog: the frozen-channel window is expected silence."""
    obs = MemoryRecorder()
    rt, services, watchdog = _build(group4, tmp_path, obs, deadline=6.0)
    _wire_barrier_suspension(services, watchdog)

    for i in range(3):
        services[i % 2].submit(b"add:%d" % (i + 1))
    sync_applied(rt, services, 3)

    assert services[0].membership.refresh_shares() == 1
    # commands racing the barrier carry over into the new epoch
    services[1].submit(b"add:10")
    sync_applied(rt, services, 5)  # 3 + barrier slot + 1

    assert {s.membership_epoch for s in services} == {1}
    assert watchdog.stalls_detected == 0
    counters = obs.snapshot()["counters"]
    assert counters.get("liveness.stalls", 0) == 0
    # every replica's barrier paired with its epoch commit
    assert counters["liveness.barrier.suspends"] == len(services)
    assert watchdog.suspended is False

    watchdog.disarm()


def test_suspension_masks_only_expected_silence(group4, tmp_path):
    """Teeth: the same frozen fingerprints that a suspension masks are
    reported the moment the watchdog is resumed and the silence persists
    past the deadline — suspend() is a window, not a mute button."""
    obs = MemoryRecorder()
    rt, services, watchdog = _build(group4, tmp_path, obs, deadline=6.0)

    services[0].submit(b"add:1")
    sync_applied(rt, services, 1)

    # an extended barrier-like window: total quiet, watchdog suspended
    watchdog.suspend()
    rt.run(until=rt.now + 10 * watchdog.deadline)
    assert watchdog.stalls_detected == 0

    # resume reseeds the stall clocks: no instant backdated accusation...
    watchdog.resume()
    assert watchdog.stalls_detected == 0

    # ...but fresh silence past the deadline is reported again.
    rt.run(until=rt.now + 3 * watchdog.deadline)
    assert watchdog.stalls_detected > 0
    assert obs.snapshot()["counters"]["liveness.stalls"] > 0

    watchdog.disarm()


def test_unpaired_resume_is_rejected(group4, tmp_path):
    obs = MemoryRecorder()
    _, _, watchdog = _build(group4, tmp_path, obs)
    with pytest.raises(ValueError):
        watchdog.resume()
    watchdog.disarm()
