"""The durable delivery log: an append-only, CRC-framed write-ahead log.

Every slot the atomic channel delivers is appended *before* the payload
reaches the application (the channel's ``on_slot`` hook fires inside the
delivery step), so after a crash the log holds at least everything the
state machine has applied.  Frames are length-prefixed with a CRC32 over
the payload; replay-on-open stops at the first bad frame and truncates the
torn tail, which is exactly the state an interrupted append leaves behind.

Record kinds (canonically encoded tuples inside each frame):

* ``("d", index, origin, oseq, kind, data, round)`` — delivered slot
  ``index`` (the global slot counter) carrying the channel record
  ``(origin, oseq, kind, data)`` decided in ``round``;
* ``("s", next_seq)`` — own-send high-water mark: the next unused
  per-origin sequence number.  Persisted *before* the signed record can
  leave the process, so a restarted replica never signs two different
  payloads under the same (origin, seq) key;
* ``("c", seq, package, signature)`` — a certified checkpoint, the first
  record of a rewritten file: it covers every slot below ``seq``, and
  none of those is in the file;
* ``("b", base)`` — the log base of the old two-file layout, whose
  certificate lived in a separate ``checkpoint.bin``.  Replayed, never
  written: such a log has no certificate under its base, which
  ``RecoverableService.start()`` refuses.

Appends only write; durability is one barrier, :meth:`DeliveryLog.sync`,
which the service calls through the channel's ``on_sync`` hook at the two
points where an append becomes visible outside the process: at the end of
a round's delivery (before any command of the round is applied or
answered) and just before an own candidate is announced (so the ``("s",
next_seq)`` mark is on disk before the signed record leaves).  A round is
the unit of agreement, so it is also the unit of durability: group
commit.

A certificate is derived data: the file still holds every slot it
covers.  So :meth:`DeliveryLog.install` only moves memory (the covered
slots leave ``slots``, ``base`` moves), and the file is rewritten — the
checkpoint first, then the retained slots, then the mark — only once
the bytes it holds for covered slots exceed both what the rewrite would
write and :data:`COMPACT_FLOOR`.  Until then a restart replays the
covered slots over the previous checkpoint.

The fsync policy decides what the barrier does: ``always`` fsyncs once if
anything was appended since the last barrier (survives power loss),
``batch`` syncs on ``flush()`` and rewrites only (survives process
crash — the file is opened unbuffered, so every append reaches the OS
page cache immediately), ``never`` leaves syncing to the OS.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import BinaryIO, Dict, List, Optional, Tuple

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError, ReproError
from repro.recovery.checkpoint import Checkpoint

FSYNC_ALWAYS = "always"
FSYNC_BATCH = "batch"
FSYNC_NEVER = "never"

_POLICIES = (FSYNC_ALWAYS, FSYNC_BATCH, FSYNC_NEVER)

#: a rewrite waits until the covered slots hold more than this many bytes
#: of the file: what a restart may replay over an older checkpoint
COMPACT_FLOOR = 1 << 20

#: frame header: payload length, CRC32(payload)
_HEADER = struct.Struct(">II")

#: a slot as stored in memory: index -> (origin, oseq, kind, data, round)
SlotValue = Tuple[int, int, int, bytes, int]

#: a slot as shipped over state transfer: (index, origin, oseq, kind, data, round)
SlotTuple = Tuple[int, int, int, int, bytes, int]


class WalError(ReproError):
    """The delivery log is structurally inconsistent (not just torn)."""


def _frame(record: tuple) -> bytes:
    body = encode(record)
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


class DeliveryLog:
    """Append-only CRC-framed log of delivered slots and the newest
    certified checkpoint, with replay-on-open."""

    def __init__(self, path: str, fsync: str = FSYNC_BATCH):
        if fsync not in _POLICIES:
            raise WalError(f"unknown fsync policy {fsync!r} (use one of {_POLICIES})")
        self.path = path
        self.fsync_policy = fsync
        #: the newest certified checkpoint; it covers every slot below ``base``
        self.checkpoint: Optional[Checkpoint] = None
        #: first slot index retained; everything below is checkpoint-covered
        self.base = 0
        self.slots: Dict[int, SlotValue] = {}
        self.sent_next = 0
        #: bytes discarded from a torn tail during the last open
        self.torn_bytes = 0
        self.appended_bytes = 0
        #: index -> size of the slot's frame in the file, for retained slots
        self._frame_bytes: Dict[int, int] = {}
        #: bytes the file still holds for slots below ``base``
        self._covered_bytes = 0
        self._fh: Optional[BinaryIO] = None
        #: an append since the last fsync (what ``sync()`` waits for)
        self._unsynced = False
        self._open_and_replay()

    # -- open / replay -----------------------------------------------------------

    def _open_and_replay(self) -> None:
        good_end = 0
        if os.path.exists(self.path):
            with open(self.path, "rb") as fh:
                blob = fh.read()
            offset = 0
            while offset + _HEADER.size <= len(blob):
                length, crc = _HEADER.unpack_from(blob, offset)
                body_start = offset + _HEADER.size
                body = blob[body_start:body_start + length]
                if len(body) < length or zlib.crc32(body) != crc:
                    break  # torn tail: an interrupted append
                try:
                    self._replay_record(decode(body), _HEADER.size + length)
                except EncodingError:
                    break  # undecodable frame: treat like torn
                offset = body_start + length
            good_end = offset
            self.torn_bytes = len(blob) - good_end
            if self.torn_bytes:
                with open(self.path, "r+b") as fh:
                    fh.truncate(good_end)
        # Unbuffered append handle: every write() is a syscall, so an
        # abandoned process (no close, no flush) loses nothing that was
        # appended — only fsync policy decides power-loss durability.
        self._fh = open(self.path, "ab", buffering=0)

    def _replay_record(self, rec: object, size: int) -> None:
        if not (isinstance(rec, tuple) and rec):
            raise EncodingError("wal frame is not a tagged tuple")
        tag = rec[0]
        if tag == "d" and len(rec) == 7:
            _, index, origin, oseq, kind, data, round_ = rec
            self.slots[index] = (origin, oseq, kind, data, round_)
            self._frame_bytes[index] = size
        elif tag == "s" and len(rec) == 2:
            self.sent_next = max(self.sent_next, rec[1])
        elif tag == "c" and len(rec) == 4:
            self._cover(Checkpoint(seq=rec[1], package=rec[2], signature=rec[3]))
        elif tag == "b" and len(rec) == 2:
            self.base = rec[1]
        # Unknown tags are skipped: forward compatibility for replay.

    # -- appends -------------------------------------------------------------------

    def append_slot(
        self, index: int, origin: int, oseq: int, kind: int, data: bytes, round_: int
    ) -> None:
        self.slots[index] = (origin, oseq, kind, data, round_)
        self._frame_bytes[index] = self._append(
            ("d", index, origin, oseq, kind, data, round_)
        )

    def append_sent(self, next_seq: int) -> None:
        self.sent_next = max(self.sent_next, next_seq)
        self._append(("s", next_seq))

    def _append(self, record: tuple) -> int:
        if self._fh is None:
            raise WalError("delivery log is closed")
        frame = _frame(record)
        self._fh.write(frame)
        self.appended_bytes += len(frame)
        self._unsynced = True
        return len(frame)

    def sync(self) -> None:
        """The durability barrier: under ``always``, fsync once if anything
        was appended since the last barrier (a no-op otherwise)."""
        if self.fsync_policy == FSYNC_ALWAYS and self._unsynced:
            self._fsync()

    def flush(self) -> None:
        """Sync to disk under the ``batch`` policy (no-op for ``never``)."""
        if self.fsync_policy != FSYNC_NEVER:
            self._fsync()

    def _fsync(self) -> None:
        if self._fh is not None:
            os.fsync(self._fh.fileno())
            self._unsynced = False

    # -- checkpoints and compaction ------------------------------------------------

    def install(self, checkpoint: Checkpoint) -> None:
        """Make ``checkpoint`` the newest and drop the slots it covers.

        Touches memory only, unless the bytes the file holds for covered
        slots now exceed both the size of a rewrite and the floor."""
        self._cover(checkpoint)
        # A byte string encodes as a fixed-width head and its bytes, so the
        # rewrite is sized without copying the package.
        rewrite = (
            len(_frame(("c", checkpoint.seq, b"", b"")))
            + len(checkpoint.package) + len(checkpoint.signature)
            + sum(self._frame_bytes.values())
            + len(_frame(("s", self.sent_next)))
        )
        if self._covered_bytes > max(rewrite, COMPACT_FLOOR):
            self._rewrite()

    def _cover(self, checkpoint: Checkpoint) -> None:
        for index in [i for i in self.slots if i < checkpoint.seq]:
            del self.slots[index]
            self._covered_bytes += self._frame_bytes.pop(index)
        self.checkpoint = checkpoint
        self.base = checkpoint.seq

    def reset(
        self, checkpoint: Optional[Checkpoint], slots: List[SlotTuple], sent_next: int
    ) -> None:
        """Replace the whole log with adopted state-transfer results (one
        atomic rewrite that carries the checkpoint)."""
        self.checkpoint = checkpoint
        self.base = checkpoint.seq if checkpoint is not None else 0
        self.slots = {s[0]: (s[1], s[2], s[3], s[4], s[5]) for s in slots}
        self.sent_next = max(self.sent_next, sent_next)
        self._rewrite()

    def _rewrite(self) -> None:
        """Atomically rewrite the file from in-memory state (tmp + rename).

        If anything fails before the rename, the old file stays in place
        and appendable (the handle is reopened either way)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        sizes: Dict[int, int] = {}
        tmp = self.path + ".tmp"
        try:
            with open(tmp, "wb") as fh:
                ckpt = self.checkpoint
                if ckpt is not None:
                    fh.write(_frame(("c", ckpt.seq, ckpt.package, ckpt.signature)))
                for index in sorted(self.slots):
                    sizes[index] = fh.write(_frame(("d", index) + self.slots[index]))
                fh.write(_frame(("s", self.sent_next)))
                fh.flush()
                if self.fsync_policy != FSYNC_NEVER:
                    os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            self._frame_bytes, self._covered_bytes = sizes, 0
            self._unsynced = False  # the new file holds every append
        finally:
            self._fh = open(self.path, "ab", buffering=0)

    # -- inspection -------------------------------------------------------------------

    def tail(self) -> List[SlotTuple]:
        """Retained slots in index order, as state-transfer tuples."""
        return [
            (index,) + self.slots[index]
            for index in sorted(self.slots)
        ]

    def check_contiguous(self) -> None:
        """Raise if the retained slots do not form ``base..base+len-1``."""
        expected = list(range(self.base, self.base + len(self.slots)))
        if sorted(self.slots) != expected:
            raise WalError(
                f"delivery log has gaps: base={self.base}, "
                f"indices={sorted(self.slots)[:8]}..."
            )

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None
