"""Unit tests for the recovery planner: guardrails, fallbacks, cadence.

The planner is pure (``GroupView`` in, at most one action out), so every
guardrail is provable with hand-built views — no simulator needed.
"""

import pytest

from repro.heal.planner import (
    REFRESH_INTERVAL,
    RESTART_THRESHOLD,
    DrainAndReplace,
    GroupView,
    Quarantine,
    RecoveryPlanner,
    RefreshShares,
    RestartReplica,
)
from repro.obs.recorder import MemoryRecorder

pytestmark = pytest.mark.heal


def view(**overrides):
    """A healthy n=4/t=1 group at t=100s; override what the test needs."""
    base = dict(
        n=4,
        t=1,
        now=100.0,
        live={0, 1, 2, 3},
        healthy={0, 1, 2, 3},
        scores={},
        byzantine={},
        spares=1,
        vacancies=0,
        last_refresh=0.0,
        in_flight=False,
        cooldowns={},
        restarts={},
        fenced=set(),
    )
    base.update(overrides)
    return GroupView(**base)


def planner(recorder=None):
    return RecoveryPlanner(recorder=recorder)


def byzantine_suspect(slot=3, score=8.0, **overrides):
    overrides.setdefault("healthy", {0, 1, 2, 3} - {slot})
    overrides.setdefault("scores", {slot: score})
    overrides.setdefault("byzantine", {slot: score})
    return view(**overrides)


def test_healthy_quiet_group_plans_nothing():
    assert planner().plan(view(last_refresh=100.0)) is None


def test_in_flight_serializes_everything():
    """Guardrail 1: one epoch change at a time, no matter the evidence."""
    p = planner()
    assert p.plan(byzantine_suspect(in_flight=True)) is None


def test_byzantine_suspect_with_spare_is_replaced():
    action = planner().plan(byzantine_suspect())
    assert action == DrainAndReplace(slot=3)


def test_byzantine_suspect_without_spare_is_quarantined():
    action = planner().plan(byzantine_suspect(spares=0))
    assert action == Quarantine(slot=3)


def test_no_spare_no_vacancy_degrades_to_refresh_only():
    """Guardrail 3: t vacancies already spent — rotate shares instead."""
    p = planner()
    action = p.plan(byzantine_suspect(spares=0, vacancies=1))
    assert action == RefreshShares(fallback=True)
    assert p.fallbacks == 1


def test_liveness_suspect_is_restarted_not_replaced():
    action = planner().plan(
        view(healthy={0, 1, 2}, scores={3: RESTART_THRESHOLD + 1}, byzantine={})
    )
    assert action == RestartReplica(slot=3)


def test_sub_threshold_scores_plan_nothing():
    action = planner().plan(
        view(
            last_refresh=100.0,
            healthy={0, 1, 2, 3},
            scores={3: 4.0},
            byzantine={3: 4.0},
        )
    )
    assert action is None


def test_never_drop_healthy_below_quorum():
    """Guardrail 2: with two slots already unhealthy, fencing a third —
    even a proven equivocator — would leave 2 < n - t = 3 healthy."""
    obs = MemoryRecorder()
    p = planner(recorder=obs)
    v = view(
        healthy={0, 1},  # 2 and 3 both degraded
        scores={2: 7.0, 3: 8.0},
        byzantine={2: 7.0, 3: 8.0},
    )
    action = p.plan(v)
    # eviction is vetoed for both; Byzantine evidence still forces the
    # refresh-only fallback so hoarded shares go stale.
    assert action == RefreshShares(fallback=True)
    assert p.vetoes >= 1
    counters = obs.snapshot()["counters"]
    assert counters["heal.guardrail.vetoed"] >= 1
    assert counters["heal.guardrail.vetoed.quorum"] >= 1
    assert counters["heal.fallback.refresh_only"] == 1


def test_fencing_an_unhealthy_slot_costs_nothing():
    """A suspect does not count as healthy, so evicting it is admissible
    exactly when the remaining healthy set alone reaches n - t."""
    action = planner().plan(byzantine_suspect(healthy={0, 1, 2}))
    assert action == DrainAndReplace(slot=3)


def test_live_floor_holds_even_with_healthy_margin():
    """The channel needs n - t *live* participants: a dark group cannot
    afford surgery even if every surviving replica is pristine."""
    p = planner()
    v = view(
        live={0, 1, 2},
        healthy={0, 1},  # 3 is already gone; 2 is the suspect
        scores={2: 9.0},
        byzantine={2: 9.0},
    )
    assert p.plan(v) == RefreshShares(fallback=True)
    assert p.vetoes == 1


def test_cooldown_suppresses_re_proposal():
    p = planner()
    v = byzantine_suspect(cooldowns={3: 150.0}, last_refresh=100.0)
    assert p.plan(v) is None
    v = byzantine_suspect(cooldowns={3: 99.0})
    assert p.plan(v) == DrainAndReplace(slot=3)


def test_worst_suspect_goes_first():
    action = planner().plan(
        view(
            n=7,
            t=2,
            live={0, 1, 2, 3, 4, 5, 6},
            healthy={0, 1, 2, 3, 4},
            scores={5: 6.0, 6: 9.0},
            byzantine={5: 6.0, 6: 9.0},
            spares=2,
        )
    )
    assert action == DrainAndReplace(slot=6)


def test_restart_escalates_to_replacement():
    """A slot that crossed threshold again after a restart is treated as
    compromised: process recycling did not cure it."""
    v = view(
        healthy={0, 1, 2},
        scores={3: RESTART_THRESHOLD + 1},
        byzantine={},  # still no Byzantine proof — only persistence
        restarts={3: 1},
    )
    assert planner().plan(v) == DrainAndReplace(slot=3)


def test_dark_slot_is_replaced_after_cooldown():
    """A fenced slot whose repair rolled back contributes nothing to the
    healthy count — re-replacing it can never violate the quorum rule."""
    p = planner()
    v = view(
        live={0, 1, 2},
        healthy={0, 1, 2},
        fenced={3},
        last_refresh=100.0,
    )
    assert p.plan(v) == DrainAndReplace(slot=3)
    # ... but not while its cooldown runs, and not without a spare.
    assert p.plan(
        view(live={0, 1, 2}, healthy={0, 1, 2}, fenced={3},
             cooldowns={3: 150.0}, last_refresh=100.0)
    ) is None
    assert p.plan(
        view(live={0, 1, 2}, healthy={0, 1, 2}, fenced={3},
             spares=0, last_refresh=100.0)
    ) is None


def test_proactive_refresh_cadence():
    p = planner()
    assert p.plan(view(last_refresh=0.0, now=REFRESH_INTERVAL - 1)) is None
    action = p.plan(view(last_refresh=0.0, now=REFRESH_INTERVAL))
    assert action == RefreshShares(fallback=False)


def test_plan_counters_by_kind():
    obs = MemoryRecorder()
    p = planner(recorder=obs)
    p.plan(byzantine_suspect())
    p.plan(view(healthy={0, 1, 2}, scores={3: RESTART_THRESHOLD + 1}))
    p.plan(view(last_refresh=0.0, now=REFRESH_INTERVAL))
    counters = obs.snapshot()["counters"]
    assert counters["heal.plan.replace"] == 1
    assert counters["heal.plan.restart"] == 1
    assert counters["heal.plan.refresh"] == 1
