"""Group commit: the durable log syncs once per delivered round.

A batched ``RecoverableService`` group (``max_batch=64``,
``pipeline_depth=4``, ``fsync="always"``) runs a burst on the simulator
with ``os.fsync`` wrapped to record how far each replica's log was on
disk at every sync.  Nothing that depends on an append may be released
before the append is synced: no command is applied while its slot is
unsynced, and no candidate is announced while a sequence mark is.  The
log still syncs less often than it appends.  Then the power goes out:
every log is cut back to its last synced size, the group restarts from
disk, and every slot a replica applied before the cut must replay.
The same cut once a checkpoint has certified finds no certificate on
disk (installing one writes nothing) and replays from the log alone.
"""

import os

import pytest

from repro.core.party import make_parties
from repro.recovery import RecoverableService
from repro.recovery import wal as wal_module
from repro.testing.invariants import tap_applies

from tests.helpers import no_errors, sim_runtime
from tests.recovery.test_service_sim import RCounter

pytestmark = pytest.mark.recovery

#: no checkpoint falls inside the run, so each log keeps every slot
SERVICE_KWARGS = dict(
    checkpoint_interval=1000, fsync="always", max_batch=64, pipeline_depth=4,
)
BURST = 96
#: simulated seconds between two submissions of the client
SPACING = 0.01


def _services(rt, tmp_path, **overrides):
    return [
        RecoverableService(
            party, "svc", RCounter(), str(tmp_path / f"replica{party.id}"),
            **dict(SERVICE_KWARGS, **overrides),
        )
        for party in make_parties(rt)
    ]


class DiskWatch:
    """What each replica's log holds on disk (synced) and in the file."""

    def __init__(self, services, monkeypatch):
        self.services = services
        self.synced = [0] * len(services)   # bytes covered by an fsync
        self.fsyncs = [0] * len(services)
        self.frames = [0] * len(services)
        self.slot_end = [{} for _ in services]  # slot index -> end offset
        self.mark_end = [0] * len(services)     # end of the newest "s" mark
        self.announced_next = [0] * len(services)  # past every own seq sent
        self.violations = []
        #: each replica's applied (command, result) pairs
        self.applied = [tap_applies(svc) for svc in services]
        inodes = {}
        for i, svc in enumerate(services):
            st = os.stat(svc.wal.path)
            inodes[(st.st_dev, st.st_ino)] = i
            self._watch_appends(i, svc)
            self._watch_applies(i, svc)
        real_fsync = wal_module.os.fsync

        def fsync(fd):
            real_fsync(fd)
            st = os.fstat(fd)
            i = inodes.get((st.st_dev, st.st_ino))
            if i is not None:
                self.fsyncs[i] += 1
                self.synced[i] = st.st_size

        monkeypatch.setattr(wal_module.os, "fsync", fsync)

    def _watch_appends(self, i, svc):
        log = svc.wal
        append_slot, append_sent = log.append_slot, log.append_sent

        def slot(index, *rest):
            append_slot(index, *rest)
            self.frames[i] += 1
            self.slot_end[i][index] = log.appended_bytes

        def sent(next_seq):
            append_sent(next_seq)
            self.frames[i] += 1
            self.mark_end[i] = log.appended_bytes

        log.append_slot, log.append_sent = slot, sent

    def _watch_applies(self, i, svc):
        on_command = svc._on_command

        def apply(*delivery):
            index = svc._apply_fifo[0]
            if self.synced[i] < self.slot_end[i][index]:
                self.violations.append(f"replica {i} applied unsynced slot {index}")
            on_command(*delivery)

        svc._on_command = apply

    def watch_announces(self):
        for i, svc in enumerate(self.services):
            channel = svc.channel
            announce = channel._announce

            def checked(r, vector, i=i, announce=announce):
                if self.synced[i] < self.mark_end[i]:
                    self.violations.append(
                        f"replica {i} announced round {r} over an unsynced mark"
                    )
                for origin, seq, _, _ in vector:
                    if origin == i:
                        self.announced_next[i] = max(self.announced_next[i], seq + 1)
                announce(r, vector)

            channel._announce = checked


def test_power_loss_keeps_every_applied_slot(group4, tmp_path, monkeypatch):
    rt = sim_runtime(group4, seed=32)
    services = _services(rt, tmp_path)
    watch = DiskWatch(services, monkeypatch)
    for svc in services:
        svc.start()
    watch.watch_announces()

    rt.spawn(_client(services))
    # Cut the power mid-burst, once some rounds are applied and some log
    # holds an append not yet synced (an own mark whose record waits).
    while services[0].applied_seq < BURST // 4 or not any(_unsynced(watch)):
        if rt.sim.idle:
            break
        rt.run(max_events=1)
    no_errors(rt)
    _cut_power_and_restart(group4, tmp_path, monkeypatch, services, watch)


def _client(services):
    for k in range(BURST):
        services[k % 2].submit(b"add:%d" % (k + 1))
        yield SPACING


def _unsynced(watch):
    return [svc.wal.appended_bytes - synced
            for svc, synced in zip(watch.services, watch.synced)]


def _cut_power_and_restart(group4, tmp_path, monkeypatch, services, watch):
    """Check the run, cut every log to its last synced size, restart the
    group from disk and check that every applied slot replays; returns
    the revived services (released)."""
    assert watch.violations == []
    assert sum(watch.fsyncs) < sum(watch.frames)
    for i in range(len(services)):
        assert watch.fsyncs[i] < watch.frames[i]
    assert any(_unsynced(watch)), "the burst ended with every append synced"

    applied = [list(log) for log in watch.applied]
    # the applied slots the log still holds in memory (all, without a checkpoint)
    slots = [[s for s in svc.wal.tail() if s[0] < svc.applied_seq] for svc in services]
    assert [len(log) for log in applied] == [svc.applied_seq for svc in services]
    for svc, synced in zip(services, watch.synced):
        svc.wal._fh.close()  # the process dies with the power; no flush
        svc.wal._fh = None
        with open(svc.wal.path, "r+b") as fh:
            fh.truncate(synced)

    monkeypatch.undo()
    revived = _services(sim_runtime(group4, seed=33), tmp_path)
    for i, svc in enumerate(revived):
        log = tap_applies(svc)
        svc.start()
        assert svc.applied_seq >= len(applied[i])
        assert set(slots[i]) <= set(svc.wal.tail())
        assert log[:len(applied[i])] == applied[i]
        # No sequence number that left the process can be handed out again.
        assert svc.wal.sent_next >= watch.announced_next[i]
        svc.release()
    return revived


def test_power_cut_after_a_certified_checkpoint_replays_the_log(
    group4, tmp_path, monkeypatch
):
    """Checkpoints certify every 8 slots, and the power goes out before
    any compaction: no certificate reached the disk, so each replica
    restarts from the log alone, applies every slot it applied before the
    cut, and reaches the state its peers had at the same slot."""
    rt = sim_runtime(group4, seed=34)
    services = _services(rt, tmp_path, checkpoint_interval=8)
    watch = DiskWatch(services, monkeypatch)
    replaced = []
    monkeypatch.setattr(wal_module.os, "replace", lambda *args: replaced.append(args))
    digests = {}  # applied slot count -> state digest, on every replica

    def record(svc):
        on_command = svc._on_command

        def apply(*delivery):
            on_command(*delivery)
            digest = svc.state_digest()
            assert digests.setdefault(svc.applied_seq, digest) == digest

        svc._on_command = apply

    for svc in services:
        record(svc)
        svc.start()
    watch.watch_announces()

    rt.spawn(_client(services))
    while min(svc.last_certified for svc in services) < 16 or not any(_unsynced(watch)):
        if rt.sim.idle:
            break
        rt.run(max_events=1)
    no_errors(rt)
    assert min(svc.last_certified for svc in services) >= 16
    assert replaced == []  # no log was rewritten before the cut
    assert all(svc.wal.base >= 16 for svc in services)

    revived = _cut_power_and_restart(group4, tmp_path, monkeypatch, services, watch)
    for svc in revived:
        assert svc.wal.checkpoint is None and svc.last_certified == 0
        assert svc.state_digest() == digests[svc.applied_seq]
