"""Replicated certification authority: issuance, races, revocation,
threshold-security properties."""

import pytest

from repro.common.encoding import decode
from repro.app.ca import (
    ReplicatedCA,
    certificate_statement,
    combine_certificate,
    verify_certificate,
)
from repro.core.party import make_parties
from repro.net.faults import CrashFault, FaultPlan
from repro.testing.invariants import tap_applies

from tests.helpers import no_errors, sim_runtime, sync_applied


def _cas(rt, parties=None):
    all_parties = make_parties(rt)
    idx = parties if parties is not None else range(rt.group.n)
    return {i: ReplicatedCA(all_parties[i]) for i in idx}


def test_issue_and_verify_certificate(group4):
    rt = sim_runtime(group4, seed=1)
    cas = _cas(rt)
    cas[0].register(b"alice", b"alice-pk")
    sync_applied(rt, cas.values(), 1)
    scheme = rt.contexts[0].crypto.cbc_scheme
    shares = {}
    for i, ca in cas.items():
        name, pk, serial, share = ca.issued_share(b"alice")
        assert (name, pk, serial) == (b"alice", b"alice-pk", 1)
        assert scheme.verify_share(certificate_statement(name, pk, serial), share)
        shares[i + 1] = share
    quorum = {i: shares[i] for i in list(shares)[: scheme.k]}
    cert = combine_certificate(scheme, b"alice", b"alice-pk", 1, quorum)
    assert verify_certificate(scheme, b"alice", b"alice-pk", 1, cert)
    no_errors(rt)


def test_certificate_binds_contents(group4):
    rt = sim_runtime(group4, seed=2)
    cas = _cas(rt)
    cas[1].register(b"bob", b"bob-pk")
    sync_applied(rt, cas.values(), 1)
    scheme = rt.contexts[0].crypto.cbc_scheme
    shares = {i + 1: ca.issued_share(b"bob")[3] for i, ca in cas.items()}
    cert = combine_certificate(scheme, b"bob", b"bob-pk", 1, shares)
    assert not verify_certificate(scheme, b"bob", b"evil-pk", 1, cert)
    assert not verify_certificate(scheme, b"mallory", b"bob-pk", 1, cert)
    assert not verify_certificate(scheme, b"bob", b"bob-pk", 2, cert)


def test_fewer_than_k_shares_cannot_issue(group4):
    """t corrupted servers alone cannot mint certificates (k > t)."""
    rt = sim_runtime(group4, seed=3)
    cas = _cas(rt)
    cas[0].register(b"carol", b"carol-pk")
    sync_applied(rt, cas.values(), 1)
    scheme = rt.contexts[0].crypto.cbc_scheme
    assert scheme.k > rt.group.t
    one_share = {1: cas[0].issued_share(b"carol")[3]}
    with pytest.raises(Exception):
        combine_certificate(scheme, b"carol", b"carol-pk", 1, one_share)


def test_registration_race_resolved_identically(group4):
    """Two clients register the same name concurrently: the total order
    makes exactly one registration win at every replica."""
    rt = sim_runtime(group4, seed=4)
    cas = _cas(rt)
    log = tap_applies(cas[2])
    cas[0].register(b"popular", b"pk-A")
    cas[1].register(b"popular", b"pk-B")
    sync_applied(rt, cas.values(), 2)
    winners = {ca.registry.registry[b"popular"][0] for ca in cas.values()}
    assert len(winners) == 1
    outcomes = sorted(decode(result)[0] for _, result in log)
    assert outcomes == ["error", "issued"]
    digests = {ca.state_digest() for ca in cas.values()}
    assert len(digests) == 1


def test_update_bumps_serial(group4):
    rt = sim_runtime(group4, seed=5)
    cas = _cas(rt)
    cas[0].register(b"dave", b"pk-1")
    cas[0].update(b"dave", b"pk-2")
    sync_applied(rt, cas.values(), 2)
    name, pk, serial, _ = cas[1].issued_share(b"dave")
    assert (name, pk, serial) == (b"dave", b"pk-2", 2)
    # the old certificate statement differs from the new one
    assert certificate_statement(b"dave", b"pk-1", 1) != certificate_statement(
        b"dave", b"pk-2", 2
    )


def test_revocation_and_query(group4):
    rt = sim_runtime(group4, seed=6)
    cas = _cas(rt)
    logs = {i: tap_applies(ca) for i, ca in cas.items()}
    cas[0].register(b"eve", b"pk-e")
    sync_applied(rt, cas.values(), 1)
    cas[1].revoke(b"eve")
    sync_applied(rt, cas.values(), 2)
    cas[2].query(b"eve")
    sync_applied(rt, cas.values(), 3)
    record = decode(logs[3][2][1])
    assert record[0] == "record"
    assert record[4] is True  # revoked flag
    # updates after revocation are refused
    cas[0].update(b"eve", b"pk-new")
    sync_applied(rt, cas.values(), 4)
    assert decode(logs[0][3][1])[0] == "error"


def test_issuance_with_crashed_replica(group4):
    """n - t honest replicas still provide a share quorum (k = 3 <= 3)."""
    rt = sim_runtime(group4, seed=7, faults=FaultPlan(crashes=(CrashFault(3),)))
    cas = _cas(rt, parties=[0, 1, 2])
    cas[0].register(b"frank", b"pk-f")
    sync_applied(rt, cas.values(), 1)
    scheme = rt.contexts[0].crypto.cbc_scheme
    shares = {i + 1: ca.issued_share(b"frank")[3] for i, ca in cas.items()}
    assert len(shares) >= scheme.k
    cert = combine_certificate(scheme, b"frank", b"pk-f", 1, shares)
    assert verify_certificate(scheme, b"frank", b"pk-f", 1, cert)


def test_malformed_requests_safe(group4):
    rt = sim_runtime(group4, seed=8)
    cas = _cas(rt)
    log = tap_applies(cas[1])
    cas[0].submit(b"\x00garbage")
    sync_applied(rt, cas.values(), 1)
    assert decode(log[0][1])[0] == "error"
    digests = {ca.state_digest() for ca in cas.values()}
    assert len(digests) == 1


def test_issued_share_re_signs_the_reply_share(group4):
    """``issued_share(name)`` re-signs the registry's current statement:
    byte-identical to the share in the issuing command's reply, and
    ``None`` once the name is revoked or for a name never registered."""
    rt = sim_runtime(group4, seed=9)
    cas = _cas(rt)
    logs = {i: tap_applies(ca) for i, ca in cas.items()}
    cas[0].register(b"grace", b"pk-g1")
    cas[1].update(b"grace", b"pk-g2")
    sync_applied(rt, cas.values(), 2)
    for i, ca in cas.items():
        reply = decode(logs[i][-1][1])
        assert reply[0] == "issued"
        assert ca.issued_share(b"grace") == tuple(reply[1:])
    assert cas[0].issued_share(b"nobody") is None
    cas[2].revoke(b"grace")
    sync_applied(rt, cas.values(), 3)
    assert all(ca.issued_share(b"grace") is None for ca in cas.values())
