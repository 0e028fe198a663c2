"""Greedy minimization of failing cases.

A failure of :func:`repro.testing.schedule.run_case` is identified by its
arguments plus the subset of fault-plan directives in force.  Because the
fault plan draws from its own RNG stream (``SimRuntime.fault_rng``) and
each faulty party's strategy stream (``mutate`` included) is keyed only
by the case seed and the party,
*removing* directives leaves everything else about the run deterministic
— so a directive subset either still fails or it doesn't, repeatably.

The shrinker exploits this with delta-debugging-style greedy removal:
first it tries chopping whole halves of the remaining directive list,
then single directives, restarting after every successful removal, under
a total re-run budget.  A removal is kept only when the case still fails
*with the same kind* (a safety bug must not shrink into an unrelated
stall).  Only the seed-derived plan shrinks: the strategy, the adversary
set and the pinned ``extra`` directives are the case's point, not noise.
The result is a (locally) 1-minimal fault plan — removing any single
remaining directive makes the failure disappear — that replays from the
shell via the ``--keep`` list in its ``REPRO:`` line.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.testing.schedule import CaseResult, Scenario, run_case


def shrink_case(
    scenario: Scenario,
    n: int,
    t: int,
    case_seed: int,
    *,
    max_runs: int = 60,
    first_failure: Optional[CaseResult] = None,
    **case_kwargs: Any,
) -> CaseResult:
    """Minimize the fault plan of a known-failing case.

    Returns the failing :class:`CaseResult` with the smallest directive
    subset found (the original failure if nothing can be removed).
    ``first_failure``, when the caller already ran the full case, avoids
    re-running it.  ``case_kwargs`` (group, time_limit, strategy,
    adversaries, extra, ...) go to :func:`run_case` unchanged.
    """
    best = first_failure
    if best is None or best.ok:
        best = run_case(scenario, n, t, case_seed, **case_kwargs)
        if best.ok:
            return best  # not actually failing; nothing to shrink
    kind = best.kind
    kept: List[int] = list(best.kept)
    runs = 0

    def attempt(subset: Sequence[int]) -> Optional[CaseResult]:
        nonlocal runs
        runs += 1
        result = run_case(
            scenario, n, t, case_seed, keep=list(subset), **case_kwargs
        )
        return result if not result.ok and result.kind == kind else None

    # Phase 1: binary chop — try dropping large chunks first.
    chunk = max(1, len(kept) // 2)
    while chunk >= 1 and runs < max_runs:
        removed_any = False
        start = 0
        while start < len(kept) and runs < max_runs:
            trial = kept[:start] + kept[start + chunk:]
            failing = attempt(trial)
            if failing is not None:
                kept = trial
                best = failing
                removed_any = True  # same start now points at fresh indices
            else:
                start += chunk
        if not removed_any or chunk == 1:
            chunk //= 2

    # Phase 2: 1-minimality sweep (mostly a no-op after phase 1).
    improved = True
    while improved and runs < max_runs:
        improved = False
        for i in range(len(kept)):
            trial = kept[:i] + kept[i + 1:]
            failing = attempt(trial)
            if failing is not None:
                kept = trial
                best = failing
                improved = True
                break
            if runs >= max_runs:
                break

    best.shrink_runs = runs
    return best
