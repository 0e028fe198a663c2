"""``repro.recovery.history.fold`` — the one walk over a slot sequence —
and the bytes of the checkpoint packages built from it.

The fold is pure, so it is tested as a table: no runtime, no party, no
service.  The package literals pin the format: a static service signs
the 4-tuple, a membership-aware one the 6-tuple, byte for byte, with the
delivered keys as ``(origin, lo, hi)`` runs (they were computed at the
commit before the fold existed and moved once since, with the format:
every other field decodes to what it did).
"""

import pytest

from repro.app.replication import StaticGroup
from repro.common.runs import Runs
from repro.core.channel.atomic import KIND_APP, KIND_CIPHER, KIND_CLOSE
from repro.core.party import make_parties
from repro.membership import (
    EpochKeychain,
    Membership,
    MembershipChange,
    make_reconfig_command,
)
from repro.recovery import RecoverableService
from repro.recovery.history import History, fold

from tests.helpers import no_errors, sim_runtime, sync_applied
from tests.recovery.test_service_sim import RCounter

pytestmark = pytest.mark.recovery

ROSTER = ("replica-0", "replica-1", "replica-2", "replica-3")
REFRESH0 = make_reconfig_command(0, MembershipChange("refresh"))
REFRESH1 = make_reconfig_command(1, MembershipChange("refresh"))
#: inadmissible at any epoch of ROSTER: replica-0 already holds slot 0
BAD0 = make_reconfig_command(
    0, MembershipChange("replace", slot=1, member="replica-0")
)


@pytest.fixture(scope="module")
def step(group4):
    return Membership(EpochKeychain(group4)).step


def _slots(first_index, *entries):
    """``(origin, oseq, kind, data, round)`` entries -> WAL slot tuples."""
    return [(first_index + i,) + entry for i, entry in enumerate(entries)]


BASE = History(roster=ROSTER)

CASES = [
    # (name, slots, expected history, expected commands)
    (
        "ordinary commands count rounds and keys",
        _slots(0, (0, 0, KIND_APP, b"a", 1), (1, 0, KIND_APP, b"b", 3)),
        History(Runs(((0, 0), (1, 0))), frozenset(), 4, 0, ROSTER),
        [b"a", b"b"],
    ),
    (
        "a close adds its origin and applies nothing",
        _slots(0, (0, 0, KIND_APP, b"a", 1), (2, 0, KIND_CLOSE, b"", 2)),
        History(Runs(((0, 0), (2, 0))), frozenset({2}), 3, 0, ROSTER),
        [b"a"],
    ),
    (
        "a ciphertext is neither applied nor stepped",
        _slots(0, (0, 0, KIND_CIPHER, REFRESH0, 1)),
        History(Runs(((0, 0),)), frozenset(), 2, 0, ROSTER),
        [],
    ),
    (
        "the barrier restarts the round at 1; later slots count from the "
        "new channel",
        _slots(
            0,
            (0, 0, KIND_APP, b"a", 7),
            (1, 0, KIND_APP, REFRESH0, 8),
            (2, 0, KIND_APP, b"b", 2),
        ),
        History(Runs(((0, 0), (1, 0), (2, 0))), frozenset(), 3, 1, ROSTER),
        [b"a", b"b"],
    ),
    (
        "a history cut at the barrier resumes at round 1",
        _slots(0, (0, 0, KIND_APP, b"a", 7), (1, 0, KIND_APP, REFRESH0, 8)),
        History(Runs(((0, 0), (1, 0))), frozenset(), 1, 1, ROSTER),
        [b"a"],
    ),
    (
        "a stale and an inadmissible command are skipped and still occupy "
        "their slots",
        _slots(
            0,
            (0, 0, KIND_APP, REFRESH0, 1),  # the barrier
            (1, 0, KIND_APP, REFRESH0, 1),  # lost the race for epoch 0
            (2, 0, KIND_APP, BAD0, 2),      # stale and inadmissible
            (3, 0, KIND_APP, b"a", 2),
        ),
        History(Runs(((0, 0), (1, 0), (2, 0), (3, 0))), frozenset(), 3, 1, ROSTER),
        [b"a"],
    ),
]


@pytest.mark.parametrize(
    "slots, history, commands",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_fold_table(step, slots, history, commands):
    assert fold(BASE, slots, step) == (history, commands)


def test_inadmissible_command_in_its_own_epoch_is_not_a_barrier(step):
    history, commands = fold(
        BASE, _slots(0, (0, 0, KIND_APP, BAD0, 4), (1, 0, KIND_APP, b"a", 5)), step
    )
    assert (history.epoch, history.round, commands) == (0, 6, [b"a"])


def test_static_rule_applies_everything():
    slots = _slots(
        0, (0, 0, KIND_APP, REFRESH0, 1), (1, 0, KIND_APP, b"a", 2)
    )
    history, commands = fold(History(), slots, StaticGroup().step)
    assert commands == [REFRESH0, b"a"]
    assert history == History(Runs(((0, 0), (1, 0))), frozenset(), 3, 0, None)


def test_fold_composes(step):
    """fold(fold(b, xs), ys) == fold(b, xs + ys), wherever the cut falls —
    which is what lets a certified package stand in for its prefix."""
    slots = _slots(
        0,
        (0, 0, KIND_APP, b"a", 1),
        (3, 0, KIND_CLOSE, b"", 1),
        (1, 0, KIND_APP, REFRESH0, 2),
        (2, 0, KIND_APP, REFRESH0, 1),
        (0, 1, KIND_APP, b"b", 1),
        (1, 1, KIND_APP, REFRESH1, 2),
        (0, 2, KIND_APP, b"c", 1),
    )
    whole, commands = fold(BASE, slots, step)
    assert (whole.epoch, whole.round, commands) == (2, 2, [b"a", b"b", b"c"])
    for cut in range(len(slots) + 1):
        prefix, first = fold(BASE, slots[:cut], step)
        history, rest = fold(prefix, slots[cut:], step)
        assert (history, first + rest) == (whole, commands)


# -- package bytes ------------------------------------------------------------------

STATIC_SEQ4 = bytes.fromhex(
    "5500000004420000000749000000012b064c00000003550000000349000000002b4900"
    "0000002b49000000012b02550000000349000000012b0149000000002b49000000012b"
    "01550000000349000000012b0249000000002b49000000012b014c0000000149000000"
    "012b0249000000012b05"
)
_ROSTER_HEX = (
    "4c0000000453000000097265706c6963612d3053000000097265706c6963612d315300"
    "0000097265706c6963612d3253000000097265706c6963612d33"
)
BARRIER_SEQ2 = bytes.fromhex(
    "5500000006420000000749000000012b014c00000002550000000349000000002b4900"
    "0000002b49000000012b01550000000349000000012b0149000000002b49000000012b"
    "014c0000000049000000012b0149000000012b01" + _ROSTER_HEX
)
EPOCH1_SEQ4 = bytes.fromhex(
    "5500000006420000000749000000012b044c00000004550000000349000000002b4900"
    "0000002b49000000012b01550000000349000000012b0149000000002b49000000012b"
    "01550000000349000000012b0249000000002b49000000012b01550000000349000000"
    "012b0349000000002b49000000012b014c0000000049000000012b0349000000012b01"
    + _ROSTER_HEX
)


def _group(rt, tmp_path, membership=lambda: None):
    services = [
        RecoverableService(
            p, "svc", RCounter(), str(tmp_path / f"replica{p.id}"),
            checkpoint_interval=2, fsync="never", membership=membership(),
        )
        for p in make_parties(rt)
    ]
    for s in services:
        s.start()
    return services


def test_static_package_bytes(group4, tmp_path):
    """Snapshot 6, four keys in three runs, replica 2's close, next round
    5 — the 4-tuple."""
    rt = sim_runtime(group4, seed=51)
    services = _group(rt, tmp_path)
    services[0].submit(b"add:1")
    sync_applied(rt, services, 1)
    services[2].close()
    rt.run()
    services[1].submit(b"add:2")
    sync_applied(rt, services, 3)
    services[0].submit(b"add:3")
    sync_applied(rt, services, 4)
    rt.run()
    assert {s.wal.checkpoint.package for s in services} == {STATIC_SEQ4}
    no_errors(rt)


def test_membership_package_bytes(group4, tmp_path):
    """The forced checkpoint cut at the barrier (epoch 1, next round 1) and
    the next one on the epoch-1 channel — the 6-tuple."""
    keychain = EpochKeychain(group4)
    rt = sim_runtime(group4, seed=52)
    services = _group(rt, tmp_path, lambda: Membership(keychain))
    services[0].submit(b"add:1")
    sync_applied(rt, services, 1)
    services[1].membership.refresh_shares()
    sync_applied(rt, services, 2)
    rt.run()
    assert {s.wal.checkpoint.package for s in services} == {BARRIER_SEQ2}
    services[3].submit(b"add:5")
    sync_applied(rt, services, 3)
    services[2].submit(b"sub:2")
    sync_applied(rt, services, 4)
    rt.run()
    assert {s.wal.checkpoint.package for s in services} == {EPOCH1_SEQ4}
    no_errors(rt)
