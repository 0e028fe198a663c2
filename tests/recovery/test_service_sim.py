"""RecoverableService under the deterministic simulator.

Covers the full recovery lifecycle without real sockets: checkpoint
certification and log truncation during normal operation, restart of a
whole (quiescent) group from durable state alone, a late joiner catching
up via peer state transfer, and rejection of Byzantine transfer
responses.
"""

import pytest

from repro.app.replication import StateMachine
from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError
from repro.core.party import make_parties
from repro.obs import MemoryRecorder
from repro.recovery import RecoverableService
from repro.recovery.checkpoint import parse_package
from repro.testing.invariants import tap_applies

from tests.helpers import no_errors, sim_runtime, sync_applied

pytestmark = pytest.mark.recovery


class RCounter(StateMachine):
    """The Counter of the replication tests, plus ``restore``."""

    def __init__(self):
        self.value = 0

    def apply(self, command: bytes) -> bytes:
        op, _, amount = command.partition(b":")
        try:
            amount = int(amount)
        except ValueError:
            return b"error"
        if op == b"add":
            self.value += amount
        elif op == b"sub":
            self.value -= amount
        else:
            return b"error"
        return str(self.value).encode()

    def snapshot(self) -> bytes:
        return encode(self.value)

    def restore(self, snapshot: bytes) -> None:
        value = decode(snapshot)
        if not isinstance(value, int):
            raise EncodingError("counter snapshot must be an int")
        self.value = value


def _service(party, tmp_path, **kwargs):
    kwargs.setdefault("checkpoint_interval", 2)
    kwargs.setdefault("fsync", "always")
    directory = str(tmp_path / f"replica{party.id}")
    return RecoverableService(party, "svc", RCounter(), directory, **kwargs)


def test_checkpoints_certify_and_truncate(group4, tmp_path):
    recorder = MemoryRecorder()
    rt = sim_runtime(group4, seed=11, recorder=recorder)
    services = [_service(p, tmp_path) for p in make_parties(rt)]
    for s in services:
        s.start()
    for i in range(4):
        services[i % 2].submit(b"add:%d" % (i + 1))
    sync_applied(rt, services, 4)
    rt.run()  # drain in-flight checkpoint shares

    assert {s.last_certified for s in services} == {4}
    assert len({s.last_state_digest() for s in services}) == 1
    for s in services:
        # The certified prefix leaves the log's memory...
        assert s.wal.base == 4
        assert all(index >= 4 for index in s.wal.slots)
        # ...and the log holds the certificate.
        assert s.wal.checkpoint is not None
        assert s.wal.checkpoint.seq == 4
        assert s.wal.checkpoint.verify(s.scheme, "svc")
    # Own-send sequence allocations were persisted before sending.
    assert services[0].wal.sent_next == 2
    assert recorder.counters["recovery.checkpoint.certified"] >= 4
    assert recorder.counters["recovery.wal.slots"] >= 16
    no_errors(rt)


def test_group_restart_from_durable_state(group4, tmp_path):
    rt = sim_runtime(group4, seed=12)
    services = [_service(p, tmp_path) for p in make_parties(rt)]
    for s in services:
        s.start()
    for i in range(5):  # 5 slots: checkpoint at 4 plus one logged tail slot
        services[0].submit(b"add:%d" % (i + 1))
    sync_applied(rt, services, 5)
    rt.run()
    digest = services[0].last_state_digest()
    assert len({s.last_state_digest() for s in services}) == 1
    for s in services:
        s.release()  # clean shutdown; the whole group goes down

    rt2 = sim_runtime(group4, seed=13)
    revived = [_service(p, tmp_path) for p in make_parties(rt2)]
    logs = [tap_applies(s) for s in revived]
    for s in revived:
        s.start()  # checkpoint restore + log-tail replay, no peers needed
    assert {s.applied_seq for s in revived} == {5}
    assert {s.last_state_digest() for s in revived} == {digest}
    # The revived group is live: it orders and applies new commands.
    revived[2].submit(b"sub:3")
    sync_applied(rt2, revived, 6)
    assert {s.state.value for s in revived} == {15 - 3}
    assert len({tuple(log) for log in logs}) == 1
    no_errors(rt2)


def test_a_record_numbered_true_does_not_poison_the_checkpoints(group4, tmp_path):
    """Records are not origin-signed and ``True`` passes the channel's
    ``isinstance(seq, int)`` shape check, so one Byzantine signer can have
    ``(3, True, ...)`` delivered on every honest replica.  The package
    certified after it must be one the group can still start from."""
    rt = sim_runtime(group4, seed=15)
    services = [_service(p, tmp_path) for p in make_parties(rt)]
    for s in services:
        s.start()
    services[3].channel._own_next_seq = True  # the adversary's numbering
    services[3].submit(b"add:7")
    services[0].submit(b"add:1")
    sync_applied(rt, services, 2)
    rt.run()
    assert {s.last_certified for s in services} == {2}
    _, history = parse_package(services[0].wal.checkpoint.package)
    assert history.delivered.canonical() == [(0, 0, 1), (3, 1, 2)]
    for s in services:
        # Compact every log, as a rewrite would, so the package is on disk.
        s.wal.reset(s.wal.checkpoint, s.wal.tail(), s.wal.sent_next)
        s.release()

    rt2 = sim_runtime(group4, seed=16)
    revived = [_service(p, tmp_path) for p in make_parties(rt2)]
    for s in revived:
        s.start()  # parses the certified package from its own disk
    assert {s.applied_seq for s in revived} == {2}
    assert {s.state.value for s in revived} == {8}
    no_errors(rt2)


def test_late_joiner_recovers_via_state_transfer(group4, tmp_path):
    recorder = MemoryRecorder()
    rt = sim_runtime(group4, seed=14, recorder=recorder)
    parties = make_parties(rt)
    services = [_service(p, tmp_path) for p in parties[:3]]
    for s in services:
        s.start()
    # Replica 3 exists but never opened its channel: it models a process
    # restarted after total memory loss, knowing only its group identity.
    joiner = _service(parties[3], tmp_path)

    for i in range(5):
        services[i % 3].submit(b"add:%d" % (i + 1))
    sync_applied(rt, services, 5)
    rt.run()
    assert {s.last_certified for s in services} == {4}

    future = joiner.recover()
    stats = rt.run_until(future, limit=3000.0)
    assert stats["seq"] == 4
    assert stats["tail_slots"] == 1
    assert stats["applied_seq"] == 5
    assert joiner.recovered
    assert joiner.applied_seq == 5
    assert joiner.last_state_digest() == services[0].last_state_digest()
    assert joiner.wal.base == 4

    # The recovered replica participates: its own sends get ordered.
    joiner.submit(b"add:100")
    sync_applied(rt, services + [joiner], 6)
    assert {s.state.value for s in services + [joiner]} == {115}
    assert recorder.counters["recovery.transfer.adopted"] == 1
    assert recorder.counters["recovery.transfer.served"] >= joiner.party.t + 1
    assert recorder.counters["recovery.catchup.slots"] == 1
    no_errors(rt)


def test_byzantine_transfer_response_rejected(group4, tmp_path):
    """A forged certificate cannot poison recovery: the response is
    rejected and adoption proceeds from the honest quorum."""
    recorder = MemoryRecorder()
    rt = sim_runtime(group4, seed=15, recorder=recorder)
    parties = make_parties(rt)
    services = [_service(p, tmp_path) for p in parties[:3]]
    for s in services:
        s.start()
    joiner = _service(parties[3], tmp_path)

    # Replica 1 turns Byzantine for state transfer: it serves a corrupted
    # snapshot under a forged certificate.
    services[1]._serve_payload = lambda: (4, b"forged-cert", b"poison", [])

    for i in range(4):
        services[0].submit(b"add:%d" % (i + 1))
    sync_applied(rt, services, 4)
    rt.run()

    future = joiner.recover()
    stats = rt.run_until(future, limit=3000.0)
    assert stats["seq"] == 4
    assert joiner.last_state_digest() == services[0].last_state_digest()
    assert recorder.counters["recovery.transfer.rejected"] >= 1
    assert recorder.counters["recovery.transfer.adopted"] == 1


def test_recover_rejects_open_channel(group4, tmp_path):
    from repro.recovery.service import RecoveryError

    rt = sim_runtime(group4, seed=16)
    parties = make_parties(rt)
    svc = _service(parties[0], tmp_path).start()
    with pytest.raises(RecoveryError):
        svc.recover()
    with pytest.raises(RecoveryError):
        svc.start()


def test_secure_channel_not_supported(group4, tmp_path):
    from repro.recovery.service import RecoveryError

    rt = sim_runtime(group4, seed=17)
    parties = make_parties(rt)
    with pytest.raises(RecoveryError):
        _service(parties[0], tmp_path, secure=True)


def _group_with_a_tail(group4, tmp_path, seed, recorder=None):
    """Three live replicas, certified at 4 with one logged slot after it,
    and replica 3 not yet started."""
    rt = sim_runtime(group4, seed=seed, recorder=recorder)
    parties = make_parties(rt)
    services = [_service(p, tmp_path) for p in parties[:3]]
    for s in services:
        s.start()
    for i in range(5):
        services[i % 3].submit(b"add:%d" % (i + 1))
    sync_applied(rt, services, 5)
    rt.run()
    assert {s.last_certified for s in services} == {4}
    return rt, parties, services


def test_checkpoint_file_of_the_previous_format_falls_back_to_peers(
    group4, tmp_path
):
    """A directory in the old two-file layout (the certificate in
    ``checkpoint.bin``, a compacted ``wal.log`` with base 4) is refused by
    ``start()``; the replica comes back through its peers, and the
    certificate then lives in its log."""
    from repro.recovery.service import RecoveryError
    from repro.recovery.wal import DeliveryLog

    recorder = MemoryRecorder()
    rt, parties, services = _group_with_a_tail(group4, tmp_path, 18, recorder)
    ckpt = services[0].wal.checkpoint
    directory = tmp_path / "replica3"
    directory.mkdir()
    (directory / "checkpoint.bin").write_bytes(
        b"SINTRA-CKPT2" + encode((ckpt.seq, ckpt.package, ckpt.signature))
    )
    old = DeliveryLog(str(directory / "wal.log"))
    old._append(("b", ckpt.seq))
    for slot in services[0].wal.tail():
        old.append_slot(*slot)
    old.close()

    joiner = _service(parties[3], tmp_path)
    with pytest.raises(RecoveryError, match="delivery log is ahead of the stored checkpoint"):
        joiner.start()
    stats = rt.run_until(joiner.recover(), limit=3000.0)
    assert (stats["seq"], stats["applied_seq"]) == (4, 5)
    assert joiner.last_state_digest() == services[0].last_state_digest()
    assert recorder.counters["recovery.transfer.adopted"] == 1
    on_disk = DeliveryLog(str(directory / "wal.log"))
    # Certificates combined from different share sets differ in bytes.
    assert (on_disk.checkpoint.seq, on_disk.checkpoint.package) == (4, ckpt.package)
    assert on_disk.checkpoint.verify(joiner.scheme, "svc")
    on_disk.close()
    no_errors(rt)


def test_count_checks_are_raised_where_the_key_list_raised_them(group4, tmp_path):
    """The three consistency checks that compared lengths of key lists
    compare counts of runs: same places, same messages."""
    from repro.recovery.checkpoint import Checkpoint, CheckpointError

    rt, parties, services = _group_with_a_tail(group4, tmp_path, 19)
    joiner = _service(parties[3], tmp_path)
    seq, sig, package, tail = services[0]._serve_payload()
    assert (seq, len(tail)) == (4, 1)
    assert joiner._validate_response(seq, sig, package, tail)["tail"] == tail

    index, origin, oseq, kind, data, round_ = tail[0]
    repeat = (index + 1, origin, oseq, kind, data, round_ + 1)
    with pytest.raises(CheckpointError, match="transfer repeats a delivered key"):
        joiner._validate_response(seq, sig, package, tail + [repeat])
    # ... also when the repeated key sits inside the certified prefix
    with pytest.raises(CheckpointError, match="transfer repeats a delivered key"):
        joiner._validate_response(seq, sig, package, [(4, 0, 0, kind, data, 9)])

    for wrong in (
        Checkpoint(seq=3, package=package, signature=sig),
        Checkpoint(seq=4, package=encode((b"", [(0, 0, 2**60)], [], 2)), signature=sig),
    ):
        with pytest.raises(CheckpointError, match="checkpoint package is inconsistent"):
            joiner._replay(wrong, [])

    # "log inconsistent with the apply stream": no package is built
    assert services[0]._build_package(5) is not None
    assert services[0]._build_package(7) is None
    services[0].wal.slots[5] = repeat[1:]
    assert services[0]._build_package(6) is None
