"""Shared pins of the bound-tightness demonstration.

The ``t + 1`` doublevote livelock is the cheapest deterministic liveness
failure the runner can produce and still costs ~7 s of host time (10
simulated seconds of spinning rounds), so it runs once per session and
every test that needs a liveness failure shares the result.
"""

from __future__ import annotations

import pytest

from repro.testing.schedule import Directive, default_group, make_scenario, run_case

#: a symmetric slow link separating the honest pair {0, 1}; every pinned
#: case runs under it so the t vs. t+1 comparison is apples to apples.
EXTRA = (
    Directive("slow-link", (0, 1, 5.0)),
    Directive("slow-link", (1, 0, 5.0)),
)

#: the pinned t+1 coalition, the seed whose honest proposals diverge
#: (0 proposes one bit, 1 the other) — the precondition for a split
#: decision — and a seed where they agree, which livelocks instead.
COALITION = [2, 3]
SAFETY_SEED = 2
LIVENESS_SEED = 0


@pytest.fixture(scope="session")
def liveness_failure():
    return run_case(
        make_scenario("binary"), 4, 1, LIVENESS_SEED,
        strategy="doublevote", adversaries=COALITION, keep=[], extra=EXTRA,
        group=default_group(4, 1), allow_excess=True, time_limit=10.0,
    )
