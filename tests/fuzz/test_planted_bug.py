"""The harness must catch deliberately planted protocol bugs.

Three classic bug shapes are injected and must be (a) detected, (b) shrunk
to a minimal fault plan, and (c) replayable from the reported seed line:

* a **safety** bug — one replica delivers each agreed batch in *reversed*
  signer order, violating total order (the sort at the end of the atomic
  channel's round is exactly the kind of line a refactor breaks);
* a **consistency** bug — one replica of the consistent channel swaps
  the first payload it delivers from one sender for another;
* a **liveness** bug — binary agreement waits for ``n - t + 1`` votes
  instead of ``n - t`` (the textbook quorum off-by-one), which deadlocks
  as soon as one party crashes.

Two more fail a case at the router boundary: a handler that raises on an
honest message (``kind=error``), and an honest party sending a message
its peers' schema refuses (``kind=safety``).
"""

from __future__ import annotations

import pytest

from repro.core.agreement.binary import BinaryAgreement
from repro.core.channel import ConsistentChannel
from repro.core.channel.aggregated import KIND_APP, _frame
from repro.core.channel.atomic import AtomicChannel
from repro.testing import (
    AgreementScenario,
    ChannelScenario,
    case_seed_for,
    plan_from_seed,
    run_case,
    shrink_case,
)
from repro.testing.schedule import main

#: Fixed root seed: these tests must find their counterexample at a known
#: iteration, independent of --fuzz-seed (random.Random is stable across
#: CPython versions for the draws the planner makes).
PLANTED_SEED = 0x5EED


class ReversedOrderChannel(AtomicChannel):
    """Planted bug: delivers agreed batches in reversed signer order."""

    def _deliver_round(self, r, batch):
        super()._deliver_round(r, [(-s, v, sig) for s, v, sig in batch])  # BUG


def _buggy_atomic_scenario() -> ChannelScenario:
    return ChannelScenario(
        "atomic",
        channel_overrides={0: lambda party: ReversedOrderChannel(party.ctx, "atomic")},
    )


def test_safety_bug_is_caught_shrunk_and_replayable(group4):
    seed = case_seed_for(PLANTED_SEED, "atomic", 4, 1, 0)
    result = run_case(_buggy_atomic_scenario(), 4, 1, seed, group=group4)
    assert not result.ok
    assert "invariant violated" in result.error
    assert "total-order" in result.error

    # The bug is fault-independent, so shrinking must strip the entire
    # fault plan: the minimal counterexample is the bare seed.
    shrunk = shrink_case(
        _buggy_atomic_scenario(), 4, 1, seed, group=group4, first_failure=result
    )
    assert not shrunk.ok
    assert shrunk.kept == []
    assert "--keep none" in shrunk.replay_command()
    assert hex(seed) in shrunk.replay_command()
    assert shrunk.repro_line().startswith("REPRO:")

    # The repro line's (seed, keep) pair replays the exact failure.
    replay = run_case(
        _buggy_atomic_scenario(), 4, 1, seed, keep=shrunk.kept, group=group4
    )
    assert (replay.ok, replay.error) == (shrunk.ok, shrunk.error)

    # Sanity: the same case on the unmodified protocol stays green.
    assert run_case(ChannelScenario("atomic"), 4, 1, seed, group=group4).ok


class SwappedPayloadChannel(ConsistentChannel):
    """Planted bug: swaps the first payload delivered from sender 1."""

    swapped = False

    def _on_instance_delivered(self, bc, payload):
        if bc.sender == 1 and not self.swapped:
            self.swapped = True
            payload = _frame(KIND_APP, b"forged")  # BUG
        super()._on_instance_delivered(bc, payload)


def _buggy_consistent_scenario() -> ChannelScenario:
    return ChannelScenario(
        "consistent",
        channel_overrides={
            0: lambda party: SwappedPayloadChannel(party.ctx, "consistent")
        },
    )


def test_consistency_bug_is_caught_and_replayable(group4):
    seed = case_seed_for(PLANTED_SEED, "consistent", 4, 1, 0)
    result = run_case(_buggy_consistent_scenario(), 4, 1, seed, group=group4)
    assert not result.ok
    assert result.kind == "safety"
    assert "invariant violated: [consistency] sender 1 position 0" in result.error

    # Fault-independent again: the minimal counterexample is the bare seed,
    # and the REPRO: line's (seed, keep) pair replays the exact failure.
    shrunk = shrink_case(
        _buggy_consistent_scenario(), 4, 1, seed, group=group4, first_failure=result
    )
    assert shrunk.kept == []
    line = shrunk.repro_line()
    assert line.startswith("REPRO:") and "kind=safety" in line
    assert f"--case {hex(seed)} --keep none" in line
    replay = run_case(
        _buggy_consistent_scenario(), 4, 1, seed, keep=shrunk.kept, group=group4
    )
    assert (replay.ok, replay.kind, replay.error) == (False, "safety", result.error)

    # Sanity: the same case on the unmodified protocol stays green.
    assert run_case(ChannelScenario("consistent"), 4, 1, seed, group=group4).ok


def _first_crash_case(n: int, t: int) -> int:
    """First planted-seed case whose plan includes a crashed party.

    A crashed party never proposes in :class:`AgreementScenario`, so with
    the planted ``n - t + 1`` quorum *any* crash starves the vote count
    and the protocol stalls, whatever the crash time.
    """
    for i in range(50):
        seed = case_seed_for(PLANTED_SEED, "binary", n, t, i)
        if any(d.kind == "crash" for d in plan_from_seed(seed, n, t)):
            return seed
    raise AssertionError("no crash plan among 50 cases")  # pragma: no cover


def test_quorum_offbyone_stalls_and_is_caught(group4, monkeypatch, capsys):
    seed = _first_crash_case(4, 1)

    # Sanity first: with the correct n - t quorum the case passes.
    assert run_case(AgreementScenario("binary"), 4, 1, seed, group=group4).ok

    monkeypatch.setattr(
        BinaryAgreement,
        "_quorum",
        property(lambda self: self.ctx.n - self.ctx.t + 1),  # BUG
    )
    result = run_case(
        AgreementScenario("binary"), 4, 1, seed, group=group4, time_limit=60.0
    )
    assert not result.ok
    assert result.error.startswith("liveness")

    # Shrinking keeps the crash (the trigger) and discards the noise.
    shrunk = shrink_case(
        AgreementScenario("binary"), 4, 1, seed,
        group=group4, time_limit=60.0, first_failure=result,
    )
    assert not shrunk.ok
    kinds = [d.kind for d in shrunk.directives]
    assert kinds == ["crash"], f"expected the crash alone to survive, got {kinds}"

    replay = run_case(
        AgreementScenario("binary"), 4, 1, seed,
        keep=shrunk.kept, group=group4, time_limit=60.0,
    )
    assert not replay.ok
    assert replay.error.startswith("liveness")
    assert "--keep" in shrunk.replay_command()

    # ... and so does pasting the printed command into the CLI.
    argv = shrunk.replay_command().split()
    argv = argv[argv.index("repro.testing.schedule") + 1:]
    assert main(argv + ["--time-limit", "60"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("REPRO:")
    assert f"kind={shrunk.kind} error={shrunk.error!r}" in out
    assert shrunk.replay_command() in out


def test_a_handler_exception_fails_the_case_with_one_repro_line(
    group4, monkeypatch, capsys
):
    """A handler that raises on one honest message type is a bug, never
    contained input: the case fails with ``kind=error``, replayably."""
    seed = case_seed_for(PLANTED_SEED, "binary", 4, 1, 0)

    def on_prevote(self, sender, payload):
        raise ValueError("planted: pre-vote handler")  # BUG

    monkeypatch.setattr(BinaryAgreement, "_on_prevote", on_prevote)
    result = run_case(AgreementScenario("binary"), 4, 1, seed, group=group4)
    assert (result.ok, result.kind) == (False, "error")
    assert result.error == "ValueError: planted: pre-vote handler"

    assert main(["--scenario", "binary", "--case", hex(seed), "--keep", "none"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("REPRO:")] == [lines[0]]
    assert "kind=error" in lines[0] and "planted: pre-vote handler" in lines[0]


def test_an_honest_malformed_message_fails_the_case(group4, monkeypatch):
    """An honest party that sends a message its peers' schema refuses (a
    pre-vote that lost four fields) breaks the no-malformed-from-honest
    invariant, even though agreement itself still terminates."""
    seed = case_seed_for(PLANTED_SEED, "binary", 4, 1, 0)
    send_prevote = BinaryAgreement._send_prevote

    def truncated(self):
        send_prevote(self)
        self.send_all("pre-vote", (self.round,))  # BUG

    monkeypatch.setattr(BinaryAgreement, "_send_prevote", truncated)
    result = run_case(
        AgreementScenario("binary"), 4, 1, seed, group=group4, keep=[]
    )
    assert (result.ok, result.kind) == (False, "safety")
    assert result.error.startswith(
        "invariant violated: malformed 'pre-vote' message from honest party"
    )
    assert result.malformed["pre-vote"] >= 4
