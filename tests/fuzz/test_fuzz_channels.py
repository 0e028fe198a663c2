"""Seeded fuzz campaigns over the broadcast channels.

Each test drives ``--fuzz-iterations`` cases of one channel kind on one
group configuration.  Every case is a full adversarial run: randomized
delivery orderings, slow links, a healing partition, up to ``t`` faulty
parties (crashed, or compromised and running the ``mutate`` strategy),
with the safety invariants re-checked after every delivery and liveness
enforced by the watchdog.

A failure prints (and, under ``REPRO_FILE``, records) a shrunk
``REPRO:`` line that replays the exact counterexample from the shell.

Longer nightly campaigns reach open in-model liveness cells (ROADMAP
item 6(d)); one replay per scenario is pinned below as a strict xfail.
"""

from __future__ import annotations

import pytest

from repro.testing import fuzz, make_scenario, report_failures, run_case

CHANNEL_KINDS = ("atomic", "secure")

#: open cells as (scenario, n, t, case seed, kept plan indices or None)
OPEN_CELLS = [
    # a compromised party plus a partition isolating party 1 until 2.88 s:
    # party 1 stays in round 1 with nothing delivered while parties 0 and
    # 3 reach round 2
    ("atomic", 4, 1, 0x5D9EACB83A66D0DF, [5, 6]),
    # a compromised party 1 plus a partition isolating parties 1 and 2
    # until 0.94 s: parties 0 and 2 never terminate, and party 2 still
    # holds 2 queued sends
    ("consistent", 4, 1, 0x810794E0C113124C, [0, 2, 3]),
]


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_fuzz_channels_n4(kind, group4, fuzz_seed, fuzz_iterations):
    failures = fuzz(make_scenario(kind), 4, 1, fuzz_seed, fuzz_iterations, group=group4)
    assert not failures, "\n" + report_failures(failures)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_fuzz_channels_n7(kind, group7, fuzz_seed, fuzz_iterations):
    failures = fuzz(make_scenario(kind), 7, 2, fuzz_seed, fuzz_iterations, group=group7)
    assert not failures, "\n" + report_failures(failures)


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="open cell, ROADMAP item 6(d)"
)
@pytest.mark.parametrize(
    "scenario,n,t,seed,keep",
    OPEN_CELLS,
    ids=[f"{scenario}-n{n}-{seed:#x}" for scenario, n, _t, seed, _keep in OPEN_CELLS],
)
def test_open_cell(scenario, n, t, seed, keep):
    result = run_case(make_scenario(scenario), n, t, seed, keep=keep)
    assert result.ok, result.repro_line()


def test_fuzz_consistent_channel(group4, fuzz_seed, fuzz_iterations):
    failures = fuzz(
        make_scenario("consistent"), 4, 1, fuzz_seed, fuzz_iterations, group=group4
    )
    assert not failures, "\n" + report_failures(failures)


def test_fuzz_replicated_ledger(group4, fuzz_seed, fuzz_iterations):
    failures = fuzz(
        make_scenario("ledger"), 4, 1, fuzz_seed, fuzz_iterations, group=group4
    )
    assert not failures, "\n" + report_failures(failures)
