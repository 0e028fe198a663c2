"""Seeded fuzz campaigns over the three atomic-broadcast channels.

Each test drives ``--fuzz-iterations`` cases of one channel kind on one
group configuration.  Every case is a full adversarial run: randomized
delivery orderings, slow links, a healing partition, up to ``t`` faulty
parties (crashed, or compromised and running the ``mutate`` strategy),
with the safety invariants re-checked after every delivery and liveness
enforced by the watchdog.

A failure prints (and, under ``REPRO_FILE``, records) a shrunk
``REPRO:`` line that replays the exact counterexample from the shell.

The optimistic channel has open in-model cells (ROADMAP item 6(a)).  The
ones the default campaigns reach are pinned below as strict-xfail
replays, and the campaigns step over their case seeds; any other
failure still fails the campaign.
"""

from __future__ import annotations

import pytest

from repro.testing import (
    fuzz,
    make_scenario,
    report_failures,
    run_case,
    shrink_case,
)

CHANNEL_KINDS = ("atomic", "secure", "optimistic")

#: open optimistic-channel cells as (n, t, case seed, kept plan indices)
OPEN_OPTIMISTIC_CELLS = [
    # liveness: the sequencer (party 2, running mutate) starves party 0 of
    # a proposal; parties 1 and 3 deliver that slot while wedged, close
    # and halt, and party 0 is left wedged with no cut quorum
    (4, 1, 0xDE9EB91748AD9199, [0, 1, 2, 4, 5]),
    # safety, no Byzantine party: a cut lands below a slot that wedged
    # parties delivered anyway, so the parties that stop at the cut
    # order that slot's payloads differently in the next epoch
    (7, 2, 0x5E6D300ED4573CB5, [1, 2, 3, 5]),
]
OPEN_SEEDS = {seed for _n, _t, seed, _keep in OPEN_OPTIMISTIC_CELLS}


def campaign_failures(kind, n, t, group, fuzz_seed, fuzz_iterations):
    """A campaign's shrunk failures, stepping over the open cells."""
    failures = fuzz(
        make_scenario(kind), n, t, fuzz_seed, fuzz_iterations,
        group=group, shrink_failures=False, fail_fast=False,
    )
    return [
        shrink_case(
            make_scenario(kind), n, t, f.case_seed, group=group, first_failure=f
        )
        for f in failures
        if f.case_seed not in OPEN_SEEDS
    ]


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_fuzz_channels_n4(kind, group4, fuzz_seed, fuzz_iterations):
    failures = campaign_failures(kind, 4, 1, group4, fuzz_seed, fuzz_iterations)
    assert not failures, "\n" + report_failures(failures)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_fuzz_channels_n7(kind, group7, fuzz_seed, fuzz_iterations):
    failures = campaign_failures(kind, 7, 2, group7, fuzz_seed, fuzz_iterations)
    assert not failures, "\n" + report_failures(failures)


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="open cell, ROADMAP item 6(a)"
)
@pytest.mark.parametrize(
    "n,t,seed,keep",
    OPEN_OPTIMISTIC_CELLS,
    ids=[f"n{n}-{seed:#x}" for n, _t, seed, _keep in OPEN_OPTIMISTIC_CELLS],
)
def test_open_optimistic_cell(n, t, seed, keep):
    result = run_case(make_scenario("optimistic"), n, t, seed, keep=keep)
    assert result.ok, result.repro_line()


def test_fuzz_stability_channel(group4, fuzz_seed, fuzz_iterations):
    failures = fuzz(
        make_scenario("stability"), 4, 1, fuzz_seed, fuzz_iterations, group=group4
    )
    assert not failures, "\n" + report_failures(failures)


def test_fuzz_replicated_ledger(group4, fuzz_seed, fuzz_iterations):
    failures = fuzz(
        make_scenario("ledger"), 4, 1, fuzz_seed, fuzz_iterations, group=group4
    )
    assert not failures, "\n" + report_failures(failures)
