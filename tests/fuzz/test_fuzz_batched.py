"""Fuzz-tier coverage for the batched + pipelined atomic channel.

The ``batched`` scenario runs the atomic channel with
``max_batch=4, pipeline_depth=2`` under the full adversarial envelope: schedule exploration, crashes,
partitions and compromised parties.  A compromised party runs the
``mutate`` strategy (:class:`~repro.adversary.strategies.MutateAdversary`),
which targets the batch vectors specifically — malformed vectors,
duplicate payloads inside a batch, cross-round splices — on top of the
generic equivocation/replay arsenal.

A planted batch-sub-order bug shows the tier has teeth: it must be
detected by the total-order invariant, shrunk to the bare seed, and
replayable from the reported ``REPRO:`` line.
"""

from __future__ import annotations

import pytest

from repro.adversary.strategies import MutateAdversary
from repro.common import rng as rng_mod
from repro.common.encoding import encode
from repro.core.channel.atomic import AtomicChannel
from repro.testing import (
    ChannelScenario,
    case_seed_for,
    fuzz,
    make_scenario,
    plan_from_seed,
    report_failures,
    run_case,
    shrink_case,
)

BATCHED_KINDS = ("batched",)

#: Fixed root seed for the deterministic (non-campaign) tests below.
BATCH_SEED = 0xBA7C


# --- campaigns ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", BATCHED_KINDS)
def test_fuzz_batched_n4(kind, group4, fuzz_seed, fuzz_iterations):
    failures = fuzz(
        make_scenario(kind), 4, 1, fuzz_seed, fuzz_iterations, group=group4
    )
    assert not failures, "\n" + report_failures(failures)


@pytest.mark.parametrize("kind", BATCHED_KINDS)
def test_fuzz_batched_n7(kind, group7, fuzz_seed, fuzz_iterations):
    failures = fuzz(
        make_scenario(kind), 7, 2, fuzz_seed, fuzz_iterations, group=group7
    )
    assert not failures, "\n" + report_failures(failures)


def _first_compromise_case(kind: str, n: int, t: int) -> int:
    """First fixed-seed case whose fault plan compromises a party, so a
    party is guaranteed to run ``mutate``."""
    for i in range(200):
        seed = case_seed_for(BATCH_SEED, kind, n, t, i)
        if any(d.kind == "compromise" for d in plan_from_seed(seed, n, t)):
            return seed
    raise AssertionError("no compromise plan among 200 cases")  # pragma: no cover


@pytest.mark.parametrize("kind", BATCHED_KINDS)
def test_batched_survives_compromised_party(kind, group4):
    seed = _first_compromise_case(kind, 4, 1)
    result = run_case(make_scenario(kind), 4, 1, seed, group=group4)
    assert result.ok, result.error


# --- the mutate strategy really targets batch vectors ------------------------------


def _record(origin: int, seq: int) -> tuple:
    return (origin, seq, 0, encode(("payload", origin, seq)))


def _corrupted(adversary, payload, mtype: str, sends: int):
    """The payloads ``adversary`` sends instead of ``payload``, over
    ``sends`` copies (equal resends — pass, duplicate, replay — left out)."""
    out = []
    for _ in range(sends):
        for _dst, _pid, kind, sent in adversary.outbound(1, "chan", mtype, payload):
            if (kind, sent) != (mtype, payload):
                out.append((kind, sent))
    return out


def test_batch_frame_mutator_produces_batch_shapes():
    adversary = MutateAdversary(rng_mod.derive(BATCH_SEED, "unit-mutator"))
    vector = [_record(0, k) for k in range(4)]
    payload = (3, tuple(vector), b"sig")
    shapes = set()
    for mtype, sent in _corrupted(adversary, payload, "queue", 3000):
        if mtype != "queue" or len(sent) != 3:
            shapes.add("reshaped")
            continue
        r, vec, _sig = sent
        if r != 3:
            shapes.add("round-spliced")
        if not vec:
            shapes.add("emptied")
        elif len(vec) > len(vector):
            shapes.add("grown")
        elif len(vec) < len(vector):
            shapes.add("truncated")
        keys = [
            (rec[0], rec[1])
            for rec in vec
            if isinstance(rec, tuple)
            and len(rec) == 4
            and isinstance(rec[0], int)
            and isinstance(rec[1], int)
        ]
        if len(keys) != len(set(keys)):
            shapes.add("duplicate-payload")
        if len(keys) < len(vec):
            shapes.add("malformed-record")
    assert {
        "round-spliced",
        "emptied",
        "grown",
        "truncated",
        "duplicate-payload",
        "malformed-record",
    } <= shapes, f"missing batch mutation shapes, saw {sorted(shapes)}"
    assert adversary.actions.get("batch-frame", 0) > 0


def test_batch_frame_mutator_falls_back_on_other_frames():
    adversary = MutateAdversary(rng_mod.derive(BATCH_SEED, "unit-fallback"))
    # A non-channel message type: must take the generic mutation path.
    assert _corrupted(adversary, (2, True, b"closing"), "vote", 500)
    assert adversary.actions.get("mutate", 0) > 0
    assert adversary.actions.get("batch-frame", 0) == 0


# --- planted batch-sub-order bug ----------------------------------------------------


class ReversedVectorChannel(AtomicChannel):
    """Planted bug: delivers every agreed vector back to front.

    Batching introduces *sub-sequencing* inside an agreement round — each
    signer's vector must be delivered front to back on every replica.
    This channel breaks exactly that, leaving round-level ordering intact,
    so only the batched tier can catch it.
    """

    def _deliver_round(self, r, batch):
        reversed_vectors = [
            (signer, list(reversed(vector)), sig) for signer, vector, sig in batch
        ]
        super()._deliver_round(r, reversed_vectors)


def _buggy_batched_scenario() -> ChannelScenario:
    return ChannelScenario(
        "batched",
        messages_per_party=4,
        channel_overrides={
            0: lambda party: ReversedVectorChannel(
                party.ctx, "batched", max_batch=4, pipeline_depth=2
            )
        },
    )


def _first_case_with_party0_nonfaulty(kind: str, n: int, t: int) -> int:
    """First fixed-seed case whose plan leaves party 0 honest and alive —
    the infected replica must be inside the invariant's checked set."""
    for i in range(200):
        seed = case_seed_for(BATCH_SEED, kind, n, t, i)
        plan = plan_from_seed(seed, n, t)
        if not any(
            d.kind in ("crash", "compromise") and d.params[0] == 0 for d in plan
        ):
            return seed
    raise AssertionError("party 0 faulty in 200 plans")  # pragma: no cover


def test_batch_suborder_bug_is_caught_shrunk_and_replayable(group4):
    seed = _first_case_with_party0_nonfaulty("batched", 4, 1)
    result = run_case(_buggy_batched_scenario(), 4, 1, seed, group=group4)
    assert not result.ok
    assert "invariant violated" in result.error
    assert "total-order" in result.error

    # Batching happens with no faults at all (later submissions queue
    # behind the in-flight round), so the bug is fault-independent and the
    # shrunk counterexample is the bare seed.
    shrunk = shrink_case(
        _buggy_batched_scenario(), 4, 1, seed, group=group4, first_failure=result
    )
    assert not shrunk.ok
    assert shrunk.kept == []
    assert shrunk.repro_line().startswith("REPRO:")
    assert hex(seed) in shrunk.replay_command()

    replay = run_case(
        _buggy_batched_scenario(), 4, 1, seed, keep=shrunk.kept, group=group4
    )
    assert (replay.ok, replay.error) == (shrunk.ok, shrunk.error)

    # Sanity: the unmodified batched channel passes the same case.
    assert run_case(make_scenario("batched"), 4, 1, seed, group=group4).ok
