"""Checkpoint packages, certificates, and their durable store (the log)."""

import hashlib

import pytest

from repro.common.encoding import encode
from repro.common.runs import Runs
from repro.core.channel.atomic import KIND_APP
from repro.crypto.threshold_sig import combine_optimistically
from repro.recovery.checkpoint import (
    Checkpoint,
    CheckpointError,
    checkpoint_scheme,
    checkpoint_signer,
    checkpoint_statement,
    make_package,
    parse_package,
)
from repro.recovery.history import History, fold
from repro.recovery.wal import DeliveryLog


def _scheme(group):
    return checkpoint_scheme(group.party(0))


def test_scheme_threshold_is_t_plus_one(group4):
    scheme = _scheme(group4)
    assert scheme.k == group4.t + 1
    assert scheme.n == group4.n


def test_statement_binds_all_fields():
    digest = hashlib.sha256(b"pkg").digest()
    base = checkpoint_statement("svc", 16, digest)
    assert base == checkpoint_statement("svc", 16, digest)
    assert base != checkpoint_statement("svc2", 16, digest)
    assert base != checkpoint_statement("svc", 17, digest)
    assert base != checkpoint_statement("svc", 16, hashlib.sha256(b"x").digest())


def test_package_round_trip_and_canonical_order():
    package = make_package(
        b"snap", History(Runs(((2, 0), (0, 1), (0, 0))), frozenset({3, 1}), 7)
    )
    snapshot, history = parse_package(package)
    assert snapshot == b"snap"
    assert history.delivered.canonical() == [(0, 0, 2), (2, 0, 1)]
    assert history.closes == {1, 3}
    assert history.round == 7
    assert (history.epoch, history.roster) == (0, None)
    # Deterministic in the slot sequence: input order must not matter.
    assert package == make_package(b"snap", history)


@pytest.mark.parametrize(
    "blob",
    [
        b"not an encoding",
        # wrong arity / wrong member types, built via make_package internals
    ],
)
def test_parse_package_rejects_garbage(blob):
    with pytest.raises(CheckpointError):
        parse_package(blob)


def test_parse_package_rejects_bad_shapes():
    bad = [
        encode((b"snap", [(0, 0, 1)], [])),  # 3-tuple
        encode(("snap", [(0, 0, 1)], [], 1)),  # snapshot not bytes
        encode((b"snap", ((0, 0, 1),), [], 1)),  # delivered not a list
        encode((b"snap", [(0, 0, 1)], ["x"], 1)),  # close origin not int
        encode((b"snap", [(0, 0, 1)], [], 0)),  # round below 1
    ]
    for blob in bad:
        with pytest.raises(CheckpointError):
            parse_package(blob)


#: t + 1 replicas sign the package digest, so a set of delivered keys must
#: have exactly one accepted encoding: each way of writing the same set (or
#: no set) differently is refused, by name
NON_CANONICAL = [
    ("runs unsorted", [(1, 0, 1), (0, 0, 1)]),
    ("runs unsorted", [(0, 5, 6), (0, 0, 1)]),
    ("runs overlap", [(0, 0, 4), (0, 3, 6)]),
    ("runs overlap", [(0, 0, 4), (0, 0, 4)]),
    ("runs adjacent", [(0, 0, 2), (0, 2, 3)]),
    ("run is empty or reversed", [(0, 3, 3)]),
    ("run is empty or reversed", [(0, 4, 2)]),
    ("run starts below zero", [(0, -1, 2)]),
    ("run must be a triple of ints", [(0, 0)]),
    ("run must be a triple of ints", [(0, 0, b"1")]),
    ("run must be a triple of ints", [(0, False, True)]),
    ("run must be a triple of ints", [[0, 0, 1]]),
]


@pytest.mark.parametrize("name, runs", NON_CANONICAL)
def test_parse_package_rejects_non_canonical_runs(name, runs):
    with pytest.raises(CheckpointError, match=name):
        parse_package(encode((b"snap", runs, [], 1)))


def test_hostile_run_costs_no_per_key_work():
    """``(0, 0, 2**60)`` parses as the one run it is (2**60 keys could not
    be held any other way); what refuses it is the count, which cannot
    equal any certified ``seq``."""
    _, history = parse_package(encode((b"snap", [(0, 0, 2**60)], [], 1)))
    assert history.delivered.canonical() == [(0, 0, 2**60)]
    assert len(history.delivered) == 2**60
    assert (0, 2**59) in history.delivered
    assert history.delivered.next_seq(0) == 2**60


def _history_of(keys_per_origin):
    return History(
        Runs((o, s) for s in range(keys_per_origin) for o in range(4)), round=9
    )


def test_package_does_not_grow_with_history():
    """What ``make_package`` encodes is four runs at either size (timed in
    BENCH_23.json's ``package_microbench_us``, not here)."""
    small, large = _history_of(25), _history_of(5000)
    assert (len(small.delivered), len(large.delivered)) == (100, 20000)
    assert len(small.delivered.canonical()) == len(large.delivered.canonical()) == 4
    packages = [make_package(b"snap", h) for h in (small, large)]
    # 25 -> 5000 is one more magnitude byte in each of four ``hi``
    assert len(packages[1]) - len(packages[0]) == 4
    assert parse_package(packages[1])[1] == large


def test_bool_keys_in_delivered_slots_leave_a_parseable_package():
    """``True`` passes the channel's ``isinstance(x, int)`` record check
    and records are not origin-signed, so a Byzantine signer can get
    ``(2, True, ...)`` delivered everywhere; the package certified after
    it must still be one every replica can load."""
    slots = [
        (0, 2, 0, KIND_APP, b"a", 1),
        (1, 2, True, KIND_APP, b"b", 2),
        (2, True, False, KIND_APP, b"c", 3),
    ]
    history, _ = fold(History(), slots, lambda epoch, roster, data: None)
    assert history.delivered.canonical() == [(1, 0, 1), (2, 0, 2)]
    package = make_package(b"snap", history)
    assert package == make_package(b"snap", History(Runs(((2, 0), (2, 1), (1, 0))), round=4))
    assert parse_package(package) == (b"snap", history)


def test_certificate_from_t_plus_one_shares(group4):
    scheme = _scheme(group4)
    package = make_package(b"snap", History(Runs(((0, 0), (1, 0))), round=3))
    statement = checkpoint_statement(
        "svc", 2, hashlib.sha256(package).digest()
    )
    shares = {}
    for i in range(scheme.k):
        signer = checkpoint_signer(group4.party(i), scheme)
        shares[i + 1] = signer.sign_share(statement)
        assert scheme.verify_share(statement, shares[i + 1])
    signature = combine_optimistically(scheme, statement, shares)
    assert signature is not None
    ckpt = Checkpoint(seq=2, package=package, signature=signature)
    assert ckpt.verify(scheme, "svc")
    # The certificate binds pid and seq: any mismatch fails verification.
    assert not ckpt.verify(scheme, "other")
    assert not Checkpoint(seq=3, package=package, signature=signature).verify(
        scheme, "svc"
    )


def test_forged_certificate_rejected(group4):
    scheme = _scheme(group4)
    ckpt = Checkpoint(seq=2, package=b"\x01evil", signature=b"\x00" * 64)
    assert not ckpt.verify(scheme, "svc")


def test_fewer_than_k_shares_cannot_combine(group4):
    scheme = _scheme(group4)
    statement = checkpoint_statement("svc", 4, hashlib.sha256(b"p").digest())
    signer = checkpoint_signer(group4.party(0), scheme)
    shares = {1: signer.sign_share(statement)}
    assert combine_optimistically(scheme, statement, shares) is None


def test_store_round_trip(tmp_path):
    """The delivery log is the checkpoint's store: a rewrite carries it."""
    path = str(tmp_path / "wal.log")
    log = DeliveryLog(path)
    assert log.checkpoint is None
    ckpt = Checkpoint(seq=8, package=b"pkg", signature=b"sig")
    log.reset(ckpt, [], sent_next=0)
    log.close()
    reloaded = DeliveryLog(path)
    assert reloaded.checkpoint == ckpt
    assert reloaded.base == 8
    reloaded.close()


def test_store_tolerates_garbage_file(tmp_path):
    """A checkpoint record that fails its CRC is not read: replay stops
    there, and the replica falls back to peer transfer."""
    path = str(tmp_path / "wal.log")
    log = DeliveryLog(path)
    log.reset(Checkpoint(seq=8, package=b"pkg" * 20, signature=b"sig"), [], 0)
    log.close()
    with open(path, "r+b") as fh:
        fh.seek(30)
        byte = fh.read(1)
        fh.seek(30)
        fh.write(bytes((byte[0] ^ 0xFF,)))
    reloaded = DeliveryLog(path)
    assert reloaded.checkpoint is None and reloaded.base == 0
    assert reloaded.torn_bytes > 0
    reloaded.close()


def test_store_ignores_a_file_of_the_previous_format(tmp_path):
    """In the old two-file layout the certificate sat in ``checkpoint.bin``
    and the compacted log began with a ``("b", base)`` record.  That file
    is not read; the log replays its base with no certificate under it,
    which ``RecoverableService.start()`` refuses."""
    ckpt = Checkpoint(seq=4, package=b"pkg", signature=b"sig")
    (tmp_path / "checkpoint.bin").write_bytes(
        b"SINTRA-CKPT2" + encode((ckpt.seq, ckpt.package, ckpt.signature))
    )
    path = str(tmp_path / "wal.log")
    log = DeliveryLog(path)
    log._append(("b", 4))
    log.append_slot(4, 0, 0, KIND_APP, b"tail", 3)
    log.close()
    reloaded = DeliveryLog(path)
    assert reloaded.checkpoint is None
    assert (reloaded.base, sorted(reloaded.slots)) == (4, [4])
    reloaded.close()
