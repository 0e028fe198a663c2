"""Seeded fuzz campaigns over the three atomic-broadcast channels.

Each test drives ``--fuzz-iterations`` cases of one channel kind on one
group configuration.  Every case is a full adversarial run: randomized
delivery orderings, slow links, a healing partition, up to ``t`` faulty
parties (crashed or wire-mutating Byzantine), with the safety invariants
re-checked after every delivery and liveness enforced by the simulator.

A failure prints (and, under ``REPRO_FILE``, records) a shrunk
``REPRO:`` line that replays the exact counterexample from the shell.
"""

from __future__ import annotations

import pytest

from repro.testing import fuzz, make_scenario, report_failures

CHANNEL_KINDS = ("atomic", "secure", "optimistic")


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_fuzz_channels_n4(kind, group4, fuzz_seed, fuzz_iterations):
    failures = fuzz(
        make_scenario(kind), 4, 1, fuzz_seed, fuzz_iterations, group=group4
    )
    assert not failures, "\n" + report_failures(failures)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_fuzz_channels_n7(kind, group7, fuzz_seed, fuzz_iterations):
    failures = fuzz(
        make_scenario(kind), 7, 2, fuzz_seed, fuzz_iterations, group=group7
    )
    assert not failures, "\n" + report_failures(failures)


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
