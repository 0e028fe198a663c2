"""The first cells of the fault product: strategy × crash, strategy × compromise.

The fault budget ``t`` is spent on strategy adversaries first and the
seed plan's crashes and compromises get the remainder.  With ``t``
adversaries that drops every crash/compromise directive — the cases the
adversary suite always ran — and with fewer (n=7/t=2: one adversary plus
one crashed party, or one running ``mutate``) it composes them in one
seeded case.
"""

from __future__ import annotations

import pytest

from repro.adversary import STRATEGIES
from repro.testing.schedule import (
    FAULTY_KINDS,
    Directive,
    default_group,
    format_directive,
    make_scenario,
    parse_directive,
    plan_from_seed,
    run_case,
    within_budget,
)

ADVERSARY = 3

#: (scenario, fault kind) -> case seeds whose plan, with party 3 the only
#: strategy adversary, materializes exactly one directive of that kind
PRODUCT_SEEDS = {
    ("binary", "crash"): [0xE5A028DDE2918B4F, 0xCD151C79A70BE999],
    ("binary", "compromise"): [0x8E04DDDD221EF441, 0x6BB5BA211DB8419D],
    ("atomic", "crash"): [0x71A58FB8BED08D14, 0xD53072846948669D],
    ("atomic", "compromise"): [0x8E4F9642D2D0F21D, 0xA307D53235B1FFA7],
}


def _product_cells():
    for (scenario, kind), seeds in PRODUCT_SEEDS.items():
        if scenario == "binary":  # ~0.1 s a case: the whole catalog, both seeds
            pairs = [(s, seed) for s in sorted(STRATEGIES) for seed in seeds]
        else:  # ~1 s a case: one attack on agreement, one on dissemination
            pairs = list(zip(("doublevote", "equivocate"), seeds))
        for strategy, seed in pairs:
            yield pytest.param(
                scenario, kind, strategy, seed,
                id=f"{scenario}-{kind}-{strategy}-{seed >> 48:x}",
            )


@pytest.fixture(scope="module")
def group7():
    return default_group(7, 2)


@pytest.mark.parametrize("scenario,kind,strategy,seed", _product_cells())
def test_one_adversary_plus_one_plan_fault(scenario, kind, strategy, seed, group7):
    result = run_case(
        make_scenario(scenario), 7, 2, seed,
        strategy=strategy, adversaries=[ADVERSARY], group=group7,
    )
    faulty = [d for d in result.directives if d.kind in FAULTY_KINDS]
    assert [d.kind for d in faulty] == [kind]
    assert faulty[0].params[0] != ADVERSARY
    assert result.ok, result.repro_line()
    assert result.checks_run > 0
    assert result.actions, "no faulty party acted"


def test_pinned_crash_through_extra_is_a_crashed_party(group7):
    """A crash pinned through ``extra`` reaches the scenario and the
    watchdog as a crashed party.  The adversary runner used to build the
    crash into the fault plan and still tell both that nobody crashed, so
    this case failed on the dead party's own stall."""
    result = run_case(
        make_scenario("batched"), 7, 2, 0xA7,
        strategy="silence", adversaries=[ADVERSARY],
        extra=[Directive("crash", (5, 0.0))], group=group7,
    )
    assert result.ok, result.repro_line()
    assert "--extra crash:5,0.0" in result.replay_command()


def test_pinned_faults_count_against_t(group7):
    with pytest.raises(ValueError, match="exceeds t"):
        run_case(
            make_scenario("binary"), 7, 2, 0,
            strategy="silence", adversaries=[1, 2],
            extra=[Directive("compromise", (4,))], group=group7,
        )
    with pytest.raises(ValueError, match="need a strategy"):
        run_case(make_scenario("binary"), 7, 2, 0, adversaries=[1], group=group7)


def test_one_party_runs_one_strategy(group7):
    """A compromised party runs ``mutate``, so compromising a strategy
    adversary would stack two strategies on one party."""
    with pytest.raises(ValueError, match="one party runs one strategy"):
        run_case(
            make_scenario("binary"), 7, 2, 0x51,
            strategy="silence", adversaries=[ADVERSARY],
            extra=[Directive("compromise", (ADVERSARY,))], group=group7,
        )


def _plans_with_faults(n, t, count):
    found = []
    for seed in range(500):
        plan = plan_from_seed(seed, n, t)
        if any(d.kind in FAULTY_KINDS for d in plan):
            found.append((seed, plan))
            if len(found) == count:
                return found
    raise AssertionError("too few plans with a crash or compromise")  # pragma: no cover


def test_t_adversaries_drop_every_crash_and_compromise(group7):
    """With the budget spent, what is left of the plan is exactly its
    scheduler directives, under their original indices."""
    plans = _plans_with_faults(7, 2, 10)
    for _, plan in plans:
        scheduler = [i for i, d in enumerate(plan) if d.kind not in FAULTY_KINDS]
        assert within_budget(plan, range(len(plan)), {1, 4}, 2) == scheduler
        # a --keep list means the same directives with or without adversaries
        assert within_budget(plan, scheduler[1:], {1, 4}, 2) == scheduler[1:]
        assert within_budget(plan, scheduler[1:], set(), 2) == scheduler[1:]
    seed, plan = plans[0]
    result = run_case(
        make_scenario("binary"), 7, 2, seed,
        strategy="withhold", adversaries=[1, 4], group=group7,
    )
    assert result.ok, result.repro_line()
    assert result.kept == [i for i, d in enumerate(plan) if d.kind not in FAULTY_KINDS]
    assert result.directives == [plan[i] for i in result.kept]


def test_budget_remainder_skips_directives_naming_an_adversary():
    plan = [
        Directive("spike", (0.1, 0.5)),
        Directive("crash", (3, 0.2)),
        Directive("compromise", (5,)),
        Directive("crash", (6, 0.4)),
    ]
    everything = range(len(plan))
    assert within_budget(plan, everything, set(), 2) == [0, 1, 2]
    assert within_budget(plan, everything, {3}, 2) == [0, 2]
    assert within_budget(plan, everything, {0}, 2) == [0, 1]
    assert within_budget(plan, [0, 3], {0}, 2) == [0, 3]
    assert within_budget(plan, everything, {0, 1, 2}, 2) == [0]  # allow_excess


@pytest.mark.parametrize(
    "directive",
    [
        Directive("spike", (0.2, 0.5)),
        Directive("slow-link", (0, 1, 5.0)),
        Directive("partition", ((0, 1), 2.0)),
        Directive("crash", (3, 0.5)),
        Directive("compromise", (3,)),
    ],
    ids=lambda d: d.kind,
)
def test_extra_specs_round_trip_every_kind(directive):
    assert parse_directive(format_directive(directive)) == directive


def test_extra_specs_reject_malformed_input():
    for spec in ("reboot:1", "crash:1", "crash:x,1.0", "slow-link:0,1"):
        with pytest.raises(ValueError, match="directive"):
            parse_directive(spec)
