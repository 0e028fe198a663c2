"""The durable delivery log: framing, replay, torn tails, checkpoints,
compaction."""

import os

import pytest

from repro.recovery.checkpoint import Checkpoint
from repro.recovery.wal import (
    FSYNC_ALWAYS,
    FSYNC_BATCH,
    FSYNC_NEVER,
    DeliveryLog,
    WalError,
    _frame,
)


def _path(tmp_path):
    return os.path.join(str(tmp_path), "wal.log")


def _ckpt(seq, package=b"pkg"):
    return Checkpoint(seq=seq, package=package, signature=b"sig")


def _compact_always(monkeypatch):
    """Drop the floor, so a rewrite fires as soon as it is smaller than
    what the covered slots hold."""
    monkeypatch.setattr("repro.recovery.wal.COMPACT_FLOOR", 0)


def test_replay_round_trip(tmp_path):
    path = _path(tmp_path)
    log = DeliveryLog(path, fsync=FSYNC_ALWAYS)
    log.append_slot(0, 1, 0, 0, b"alpha", 1)
    log.append_slot(1, 2, 0, 0, b"beta", 1)
    log.append_slot(2, 1, 1, 1, b"", 2)  # a close record
    log.append_sent(5)
    log.close()

    replayed = DeliveryLog(path)
    assert replayed.tail() == [
        (0, 1, 0, 0, b"alpha", 1),
        (1, 2, 0, 0, b"beta", 1),
        (2, 1, 1, 1, b"", 2),
    ]
    assert replayed.sent_next == 5
    assert replayed.base == 0
    assert replayed.torn_bytes == 0
    replayed.check_contiguous()
    replayed.close()


def test_replay_without_close_loses_nothing(tmp_path):
    """An abandoned (never closed, never flushed) log replays fully: the
    append handle is unbuffered, so a process kill loses no appends."""
    path = _path(tmp_path)
    log = DeliveryLog(path, fsync=FSYNC_NEVER)
    for i in range(10):
        log.append_slot(i, i % 4, i // 4, 0, b"x%d" % i, 1 + i // 3)
    # no close(), no flush(): drop the object as a kill would
    replayed = DeliveryLog(path)
    assert len(replayed.slots) == 10
    replayed.close()


def test_torn_tail_is_truncated(tmp_path):
    path = _path(tmp_path)
    log = DeliveryLog(path, fsync=FSYNC_ALWAYS)
    log.append_slot(0, 0, 0, 0, b"keep", 1)
    log.close()
    with open(path, "ab") as fh:
        fh.write(b"\x00\x00\x00\x20partial frame that never finished")

    replayed = DeliveryLog(path)
    assert replayed.torn_bytes > 0
    assert replayed.tail() == [(0, 0, 0, 0, b"keep", 1)]
    replayed.close()
    # The torn bytes are gone from disk too: a second open is clean.
    again = DeliveryLog(path)
    assert again.torn_bytes == 0
    again.close()


def test_corrupt_frame_stops_replay(tmp_path):
    path = _path(tmp_path)
    log = DeliveryLog(path, fsync=FSYNC_ALWAYS)
    log.append_slot(0, 0, 0, 0, b"first", 1)
    size_after_first = os.path.getsize(path)
    log.append_slot(1, 1, 0, 0, b"second", 1)
    log.close()
    # Flip a byte inside the second frame's body: CRC catches it.
    with open(path, "r+b") as fh:
        fh.seek(size_after_first + 12)
        original = fh.read(1)
        fh.seek(size_after_first + 12)
        fh.write(bytes((original[0] ^ 0xFF,)))

    replayed = DeliveryLog(path)
    assert [s[0] for s in replayed.tail()] == [0]
    assert replayed.torn_bytes > 0
    replayed.close()


def test_truncate_through_compacts_and_persists(tmp_path, monkeypatch):
    """A checkpoint over slots 0..3 drops them; once they outweigh a
    rewrite, the file is compacted to the checkpoint, the tail and the mark."""
    _compact_always(monkeypatch)
    path = _path(tmp_path)
    log = DeliveryLog(path, fsync=FSYNC_ALWAYS)
    for i in range(6):
        log.append_slot(i, i % 4, 0, 0, b"slot%d" % i * 8, 1 + i)
    log.append_sent(2)
    size = os.path.getsize(path)
    log.install(_ckpt(4))
    assert log.base == 4
    assert sorted(log.slots) == [4, 5]
    log.check_contiguous()
    assert os.path.getsize(path) < size
    log.close()

    replayed = DeliveryLog(path)
    assert replayed.checkpoint == _ckpt(4)
    assert replayed.base == 4
    assert sorted(replayed.slots) == [4, 5]
    assert replayed.sent_next == 2  # high-water survives compaction
    replayed.close()


def test_reset_replaces_contents(tmp_path):
    path = _path(tmp_path)
    log = DeliveryLog(path, fsync=FSYNC_ALWAYS)
    log.append_slot(0, 0, 0, 0, b"stale", 1)
    log.reset(_ckpt(8), [(8, 1, 2, 0, b"adopted", 9)], sent_next=3)
    log.close()

    replayed = DeliveryLog(path)
    assert replayed.checkpoint == _ckpt(8)
    assert replayed.base == 8
    assert replayed.tail() == [(8, 1, 2, 0, b"adopted", 9)]
    assert replayed.sent_next == 3
    replayed.check_contiguous()
    replayed.close()


def test_sent_high_water_is_monotonic(tmp_path):
    log = DeliveryLog(_path(tmp_path), fsync=FSYNC_NEVER)
    log.append_sent(4)
    log.append_sent(2)  # late/duplicate persist must not regress
    assert log.sent_next == 4
    log.close()


def test_check_contiguous_detects_gaps(tmp_path):
    log = DeliveryLog(_path(tmp_path), fsync=FSYNC_NEVER)
    log.append_slot(0, 0, 0, 0, b"a", 1)
    log.append_slot(2, 1, 0, 0, b"c", 2)  # gap at 1
    with pytest.raises(WalError):
        log.check_contiguous()
    log.close()


def test_append_after_close_raises(tmp_path):
    log = DeliveryLog(_path(tmp_path))
    log.close()
    with pytest.raises(WalError):
        log.append_sent(1)


def test_unknown_fsync_policy_rejected(tmp_path):
    with pytest.raises(WalError):
        DeliveryLog(_path(tmp_path), fsync="sometimes")


def _count_fsyncs(monkeypatch):
    calls = []
    real_fsync = os.fsync

    def fsync(fd):
        calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr("repro.recovery.wal.os.fsync", fsync)
    return calls


def test_sync_is_one_fsync_per_barrier(tmp_path, monkeypatch):
    _compact_always(monkeypatch)
    calls = _count_fsyncs(monkeypatch)
    log = DeliveryLog(_path(tmp_path), fsync=FSYNC_ALWAYS)
    for i in range(3):
        log.append_slot(i, 0, i, 0, b"s%d" % i, 1)
    log.append_sent(3)
    assert calls == []  # appends only write
    log.sync()
    assert len(calls) == 1
    log.sync()
    assert len(calls) == 1  # nothing appended since the last barrier
    log.append_slot(3, 0, 3, 0, b"s3", 2)
    log.install(_ckpt(4))  # compaction syncs the file it writes...
    synced = len(calls)
    log.sync()
    assert len(calls) == synced  # ...which already holds the append
    log.close()


@pytest.mark.parametrize("policy", [FSYNC_BATCH, FSYNC_NEVER])
def test_sync_is_a_no_op_below_always(tmp_path, monkeypatch, policy):
    calls = _count_fsyncs(monkeypatch)
    log = DeliveryLog(_path(tmp_path), fsync=policy)
    log.append_slot(0, 0, 0, 0, b"x", 1)
    log.sync()
    assert calls == []
    log.close()


def test_failed_compaction_leaves_the_old_log_appendable(tmp_path, monkeypatch):
    _compact_always(monkeypatch)
    path = _path(tmp_path)
    log = DeliveryLog(path, fsync=FSYNC_ALWAYS)
    for i in range(4):
        log.append_slot(i, 0, i, 0, b"s%d" % i, 1)

    def replace(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr("repro.recovery.wal.os.replace", replace)
    with pytest.raises(OSError):
        log.install(_ckpt(4))
    monkeypatch.undo()
    calls = _count_fsyncs(monkeypatch)
    log.append_slot(4, 0, 4, 0, b"s4", 2)
    log.sync()
    assert len(calls) == 1  # the failed rewrite synced nothing of this file
    log.close()

    replayed = DeliveryLog(path)
    assert replayed.base == 0  # the old file, with the later append
    assert sorted(replayed.slots) == [0, 1, 2, 3, 4]
    replayed.close()


class _CountingFile:
    """Stands in for the log's append handle and counts its writes."""

    def __init__(self, fh, writes):
        self._fh, self._writes = fh, writes

    def write(self, data):
        self._writes.append(len(data))
        return self._fh.write(data)

    def fileno(self):
        return self._fh.fileno()

    def close(self):
        self._fh.close()


def test_installing_a_checkpoint_touches_no_file(tmp_path, monkeypatch):
    """A certificate is derived data: the file still holds every slot it
    covers, so installing it writes, syncs and renames nothing."""
    path = _path(tmp_path)
    log = DeliveryLog(path, fsync=FSYNC_ALWAYS)
    for i in range(6):
        log.append_slot(i, 0, i, 0, b"s%d" % i, 1 + i)
    log.append_sent(6)
    log.sync()
    size = os.path.getsize(path)

    fsyncs = _count_fsyncs(monkeypatch)
    writes, opens, replaces = [], [], []
    log._fh = _CountingFile(log._fh, writes)
    monkeypatch.setattr(
        "repro.recovery.wal.open",
        lambda *args, **kw: opens.append(args) or open(*args, **kw),
        raising=False,
    )
    monkeypatch.setattr("repro.recovery.wal.os.replace", lambda *a: replaces.append(a))
    log.install(_ckpt(4))
    assert (fsyncs, writes, opens, replaces) == ([], [], [], [])
    assert (log.checkpoint, log.base, sorted(log.slots)) == (_ckpt(4), 4, [4, 5])
    log.sync()
    assert fsyncs == []  # the install left nothing to sync either
    monkeypatch.undo()
    log.close()

    # The file is what it was: a restart replays the covered slots over
    # the previous checkpoint (here: none).
    assert os.path.getsize(path) == size
    replayed = DeliveryLog(path)
    assert (replayed.checkpoint, replayed.base) == (None, 0)
    assert sorted(replayed.slots) == list(range(6))
    replayed.close()


def test_compaction_fires_when_covered_bytes_outweigh_a_rewrite(tmp_path, monkeypatch):
    """The file is rewritten exactly when the bytes it holds for covered
    slots exceed both the size of the rewrite and the floor; the rewritten
    file replays to the same checkpoint, tail and sent mark."""
    floor = 1500
    monkeypatch.setattr("repro.recovery.wal.COMPACT_FLOOR", floor)
    replaces = []
    real_replace = os.replace
    monkeypatch.setattr(
        "repro.recovery.wal.os.replace",
        lambda src, dst: replaces.append(dst) or real_replace(src, dst),
    )
    path = _path(tmp_path)
    log = DeliveryLog(path, fsync=FSYNC_ALWAYS)
    frame_size = {}  # slot index -> bytes its frame added to the file
    covered = 0  # bytes the file holds for slots below the checkpoint
    outcomes = []
    for seq in range(2, 41, 2):
        for index in (seq - 2, seq - 1):
            before = os.path.getsize(path)
            log.append_slot(index, index % 4, index // 4, 0, b"v" * 100, index)
            frame_size[index] = os.path.getsize(path) - before
        log.append_sent(seq)
        # Packages grow past the floor halfway, so both sides of max() decide.
        ckpt = _ckpt(seq - 1, b"p" * (100 if seq <= 20 else 2000))
        covered += sum(frame_size[i] for i in (seq - 3, seq - 2) if i >= 0)
        retained = [i for i in log.slots if i >= ckpt.seq]
        live = (
            len(_frame(("c", ckpt.seq, ckpt.package, ckpt.signature)))
            + sum(frame_size[i] for i in retained)
            + len(_frame(("s", log.sent_next)))
        )
        expected = covered > max(live, floor)
        log.install(ckpt)
        outcomes.append((expected, live > floor))
        assert bool(replaces) == expected, (seq, covered, live)
        if expected:
            assert os.path.getsize(path) == live
            replayed = DeliveryLog(path, fsync=FSYNC_NEVER)
            assert replayed.checkpoint == ckpt
            assert replayed.tail() == log.tail()
            assert replayed.sent_next == log.sent_next
            replayed.close()
            covered = 0
            replaces.clear()
    assert {(True, False), (True, True), (False, False), (False, True)} <= set(outcomes)
    log.close()
