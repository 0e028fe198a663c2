"""Checkpoint packages, certificates, and their durable store."""

import hashlib

import pytest

from repro.crypto.threshold_sig import combine_optimistically
from repro.recovery.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointStore,
    checkpoint_scheme,
    checkpoint_signer,
    checkpoint_statement,
    make_package,
    parse_package,
)
from repro.recovery.history import History

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
        b"snap", History(((2, 0), (0, 1), (0, 0)), frozenset({3, 1}), 7)
    )
    snapshot, history = parse_package(package)
    assert snapshot == b"snap"
    assert history.delivered == ((0, 0), (0, 1), (2, 0))
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
    from repro.common.encoding import encode

    bad = [
        encode((b"snap", [(0, 0)], [])),  # 3-tuple
        encode(("snap", [(0, 0)], [], 1)),  # snapshot not bytes
        encode((b"snap", [(0,)], [], 1)),  # delivered key not a pair
        encode((b"snap", [(0, -1)], [], 1)),  # negative per-origin seq
        encode((b"snap", [(0, 0)], ["x"], 1)),  # close origin not int
        encode((b"snap", [(0, 0)], [], 0)),  # round below 1
    ]
    for blob in bad:
        with pytest.raises(CheckpointError):
            parse_package(blob)


def test_certificate_from_t_plus_one_shares(group4):
    scheme = _scheme(group4)
    package = make_package(b"snap", History(((0, 0), (1, 0)), round=3))
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
    path = str(tmp_path / "checkpoint.bin")
    store = CheckpointStore(path)
    assert store.latest is None
    ckpt = Checkpoint(seq=8, package=b"pkg", signature=b"sig")
    store.save(ckpt)
    reloaded = CheckpointStore(path)
    assert reloaded.latest == ckpt


def test_store_tolerates_garbage_file(tmp_path):
    path = str(tmp_path / "checkpoint.bin")
    with open(path, "wb") as fh:
        fh.write(b"SINTRA-CKPT1 but then torn garbage \x00\xff")
    store = CheckpointStore(path)
    assert store.latest is None  # falls back to peer transfer
    with open(path, "wb") as fh:
        fh.write(b"entirely unrecognized")
    assert CheckpointStore(path).latest is None
