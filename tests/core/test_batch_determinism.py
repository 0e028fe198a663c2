"""Determinism regression for the batched + pipelined atomic channel.

Batching and pipelining must not introduce any nondeterminism: with the
same simulation seed, every configuration of ``pipeline_depth`` (1 vs 4)
and ``max_batch`` (1, 8, 64) must reproduce a byte-identical delivery
order and state digest — across reruns and across all ``n = 4`` parties.
The full workload is drained in every configuration, so the delivered
payload multiset is also identical across the whole matrix.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.common.encoding import encode
from repro.core.channel import AtomicChannel
from tests.helpers import no_errors, sim_runtime

#: (pipeline_depth, max_batch)
CONFIGS = [(1, 1), (1, 8), (1, 64), (4, 1), (4, 8), (4, 64)]

SENDS_PER_PARTY = 6
SEED = 0xD37E12


def _run_config(group4, depth: int, batch: int):
    """One seeded run; returns (delivery order, state digest) per party."""
    rt = sim_runtime(group4, seed=SEED)
    chans = {
        i: AtomicChannel(rt.contexts[i], "det", max_batch=batch, pipeline_depth=depth)
        for i in range(4)
    }
    for k in range(SENDS_PER_PARTY):
        for s in range(4):
            chans[s].send(encode(("cmd", s, k)))
    expect = 4 * SENDS_PER_PARTY
    got = {i: [] for i in chans}

    def reader(i, ch):
        while len(got[i]) < expect:
            payload = yield ch.receive()
            got[i].append(payload)

    procs = [rt.spawn(reader(i, ch)) for i, ch in chans.items()]
    for p in procs:
        rt.run_until(p.future, limit=3000)
    for ch in chans.values():
        ch.close()
    for ch in chans.values():
        rt.run_until(ch.closed, limit=3000)
    no_errors(rt)
    orders = {i: list(g) for i, g in got.items()}
    digests = {
        i: hashlib.sha256(encode(g)).hexdigest() for i, g in got.items()
    }
    return orders, digests


@pytest.mark.parametrize("depth,batch", CONFIGS)
def test_same_seed_is_byte_identical(group4, depth, batch):
    first_orders, first_digests = _run_config(group4, depth, batch)
    # All four parties agree within one run (total order + equal digests).
    reference = first_orders[0]
    assert all(order == reference for order in first_orders.values())
    assert len(set(first_digests.values())) == 1

    # A rerun with the same seed is byte-identical, party by party.
    second_orders, second_digests = _run_config(group4, depth, batch)
    assert second_orders == first_orders
    assert second_digests == first_digests


def test_payload_set_identical_across_matrix(group4):
    """Every configuration delivers exactly the same payload multiset (the
    knobs change scheduling, never content)."""
    expected = sorted(
        encode(("cmd", s, k)) for s in range(4) for k in range(SENDS_PER_PARTY)
    )
    reference_digest = None
    for depth, batch in CONFIGS:
        orders, digests = _run_config(group4, depth, batch)
        assert sorted(orders[0]) == expected, (depth, batch)
        if (depth, batch) == (1, 1):
            reference_digest = digests[0]
    assert reference_digest is not None
