"""Safety and liveness of every shipped strategy at exactly ``t`` intrusions.

The acceptance bar for the adversary framework: with ``t`` Byzantine
replicas running each cataloged strategy under pinned seeds, no safety
invariant fires, all honest replicas decide/deliver identically (the
scenarios' invariant suites check exactly that), and every run
terminates — ``result.ok`` asserts all three at once, since a hang would
surface as a typed ``LivenessViolation`` or simulator timeout and fail
the case.
"""

from __future__ import annotations

import pytest

from repro.adversary import STRATEGIES, make_strategy
from repro.obs.recorder import MemoryRecorder
from repro.testing.schedule import (
    default_group,
    main,
    make_scenario,
    parse_directive,
    run_case,
)

#: three pinned case seeds per strategy (acceptance criterion: >= 3)
PINNED_SEEDS = [0x51, 0xA7, 0x1234]

ALL_STRATEGIES = sorted(STRATEGIES)


@pytest.fixture(scope="module")
def group4():
    return default_group(4, 1)


def run(scenario, strategy, seed, **kwargs):
    return run_case(make_scenario(scenario), 4, 1, seed, strategy=strategy, **kwargs)


@pytest.mark.parametrize("seed", PINNED_SEEDS)
@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_binary_agreement_absorbs_t_adversaries(strategy, seed, group4):
    result = run("binary", strategy, seed, group=group4)
    assert result.ok, result.repro_line()
    assert result.checks_run > 0


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_atomic_channel_absorbs_t_adversaries(strategy, group4):
    result = run("atomic", strategy, 0x1234, group=group4)
    assert result.ok, result.repro_line()


@pytest.mark.parametrize("strategy", ["doublevote", "badshare", "forgecert"])
def test_mvba_absorbs_t_adversaries(strategy, group4):
    result = run("mvba", strategy, 0x1234, group=group4)
    assert result.ok, result.repro_line()


@pytest.mark.parametrize("strategy", ["silence", "withhold", "equivocate", "replay"])
def test_secure_channel_absorbs_t_adversaries(strategy, group4):
    result = run("secure", strategy, 0x1234, group=group4)
    assert result.ok, result.repro_line()


def test_strategies_actually_act(group4):
    """Every strategy's action counters are non-zero on a busy scenario —
    a do-nothing strategy would vacuously pass the safety tests."""
    expected = {
        "silence": "dropped",
        "withhold": "withheld",
        "badshare": "flipped",
        "equivocate": "spliced",
        "replay": "replayed",
        "forgecert": "forged",
        "doublevote": "split-pre-vote",
        "mutate": "mutate",
    }
    for strategy, action in expected.items():
        result = run("atomic", strategy, 0x1234, group=group4)
        assert result.actions.get(action, 0) > 0, (strategy, result.actions)


def test_strategy_actions_surface_as_obs_counters(group4):
    recorder = MemoryRecorder()
    result = run("binary", "silence", 0x1234, group=group4, recorder=recorder)
    assert result.ok
    counters = recorder.snapshot()["counters"]
    assert counters.get("adversary.silence.dropped", 0) > 0


def test_replay_is_deterministic(group4):
    first = run("binary", "doublevote", 0x51, group=group4)
    second = run("binary", "doublevote", 0x51, group=group4)
    assert first.ok == second.ok
    assert first.actions == second.actions
    assert first.adversaries == second.adversaries
    assert first.directives == second.directives


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown strategy"):
        make_strategy("no-such-strategy")


def test_excess_adversaries_rejected_by_default(group4):
    with pytest.raises(ValueError, match="exceeds t"):
        run("binary", "silence", 0, adversaries=[1, 2], group=group4)


def test_cli_replays_a_case(capsys, group4):
    code = main(
        [
            "--scenario", "binary", "--strategy", "withhold",
            "--n", "4", "--t", "1", "--case", "0x51",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "OK:" in out and "strategy=withhold" in out


def test_compromised_party_runs_the_mutate_strategy(capsys, group4):
    """``compromise:<p>`` puts ``p`` behind ``mutate``: its actions show on
    the OK line and in the result, and a replay repeats them exactly."""
    argv = ["--scenario", "atomic", "--case", "0x1234", "--extra", "compromise:2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == out
    assert ", mutate=" in out and ", drop=" in out

    extra = [parse_directive("compromise:2")]
    results = [
        run("atomic", None, 0x1234, extra=extra, group=group4) for _ in range(2)
    ]
    assert results[0].ok, results[0].repro_line()
    assert results[0].actions.get("mutate", 0) > 0
    assert results[0].actions == results[1].actions


def test_the_ok_line_counts_malformed_messages_by_type(capsys, group4):
    """What the routers refused from a faulty party shows on the OK line,
    one count per message type, for one case and for a campaign."""
    case = ["--scenario", "binary", "--strategy", "mutate", "--case", "0x1"]
    assert main(case + ["--keep", "none"]) == 0
    assert capsys.readouterr().out.rstrip().endswith(", malformed main-vot=2)")

    campaign = ["--scenario", "binary", "--strategy", "mutate", "--seed", "0xS1NTRA"]
    assert main(campaign + ["--iterations", "3"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("(malformed coi=1)")


def test_share_mtypes_are_protocol_message_types():
    """``withhold`` and ``badshare`` act on ``SHARE_MTYPES``; each entry
    must be a message type some protocol under ``repro.core`` sends."""
    import importlib
    import pkgutil

    import repro.core
    from repro.adversary.strategies import SHARE_MTYPES

    sent = set()
    for info in pkgutil.walk_packages(repro.core.__path__, "repro.core."):
        module = importlib.import_module(info.name)
        sent.update(
            value
            for name, value in vars(module).items()
            if name.startswith("MSG_") and isinstance(value, str)
        )
    assert set(SHARE_MTYPES) <= sent, sorted(set(SHARE_MTYPES) - sent)
