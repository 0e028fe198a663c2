"""The n > 3t resilience bound is *tight* for the shipped attack strategies.

Two halves of the same demonstration, pinned to exact seeds:

* at exactly ``t`` intrusions the double-vote coalition achieves nothing —
  every honest party decides, identically, under the same network
  conditions;
* at ``t + 1`` intrusions (``--allow-excess``) the very same strategy
  breaks the protocol: one pinned seed yields a **safety** violation
  (honest parties decide different values), the others a **liveness**
  violation (the coalition livelocks the honest pair indefinitely).

The coalition holds ``n - t - 1 = 2`` of the ``k = n - t = 3`` required
signature shares, so hoarding the honest parties' broadcast shares lets it
assemble threshold justifications for *both* values and drive the two
honest parties down different decision paths across a slow link.
"""

from __future__ import annotations

import pytest

from repro.testing.schedule import default_group, main, make_scenario, run_case
from repro.testing.shrink import shrink_case

from tests.adversary.conftest import COALITION, EXTRA, SAFETY_SEED


@pytest.fixture(scope="module")
def group4():
    return default_group(4, 1)


def doublevote(seed, **kwargs):
    return run_case(
        make_scenario("binary"), 4, 1, seed, strategy="doublevote", extra=EXTRA,
        **kwargs,
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("adversary", [2, 3])
def test_exactly_t_doublevote_is_absorbed(adversary, seed, group4):
    """Each coalition member *alone* (exactly t) is harmless under the
    identical network conditions that doom the t+1 runs below."""
    result = doublevote(seed, adversaries=[adversary], keep=[], group=group4)
    assert result.ok, result.repro_line()


def test_t_plus_one_doublevote_breaks_safety(group4):
    result = doublevote(
        SAFETY_SEED, adversaries=COALITION, keep=[], group=group4,
        allow_excess=True,
    )
    assert not result.ok
    assert result.kind == "safety"
    assert "decided differently" in result.error
    line = result.repro_line()
    assert line.startswith("REPRO:") and "--allow-excess" in line
    assert "--extra slow-link:0,1,5.0 --extra slow-link:1,0,5.0" in line


def test_safety_repro_line_replays_via_cli(group4, capsys):
    """Pasting the printed replay command reproduces the exact failure —
    the pinned slow links travel with it as ``--extra`` specs."""
    result = doublevote(
        SAFETY_SEED, adversaries=COALITION, keep=[], group=group4,
        allow_excess=True,
    )
    argv = result.replay_command().split()
    argv = argv[argv.index("repro.testing.schedule") + 1:]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out.startswith("REPRO:") and "decided differently" in out
    assert f"kind={result.kind} error={result.error!r}" in out
    assert result.replay_command() in out


def test_repro_line_carries_the_budgets_that_decide_the_run(capsys):
    """A case run under its own ``--deadline`` / ``--time-limit`` replays
    under them: this heal case is repaired within the scenario's 2000 s
    and cannot be within 50, so a replay that fell back to the defaults
    would pass."""
    result = run_case(
        make_scenario("heal"), 4, 1, 0x1, keep=[], strategy="doublevote",
        deadline=10.0, time_limit=50.0,
    )
    assert not result.ok and result.kind == "liveness"
    assert (result.deadline, result.time_limit) == (10.0, 50.0)
    command = result.replay_command()
    assert command.endswith("--keep none --deadline 10 --time-limit 50")
    argv = command.split()
    argv = argv[argv.index("repro.testing.schedule") + 1:]
    assert main(argv) == 1
    assert f"kind={result.kind} error={result.error!r}" in capsys.readouterr().out
    assert main(argv[:argv.index("--deadline")]) == 0


def test_t_plus_one_doublevote_breaks_liveness(liveness_failure):
    """Seeds where the honest proposals agree livelock instead: the
    coalition keeps both values viable forever, so rounds spin without a
    decision until the simulated-time budget trips (the run itself is the
    session fixture in ``conftest.py``)."""
    assert not liveness_failure.ok
    assert liveness_failure.kind == "liveness"
    assert liveness_failure.error
    assert liveness_failure.dump  # the violation carries the watchdog's state


def test_safety_break_is_deterministic(group4):
    runs = [
        doublevote(
            SAFETY_SEED, adversaries=COALITION, keep=[], group=group4,
            allow_excess=True,
        )
        for _ in range(2)
    ]
    assert runs[0].error == runs[1].error
    assert runs[0].kind == runs[1].kind == "safety"


def test_shrink_discards_superfluous_chaos(group4):
    """The safety break needs none of the seed-derived chaos plan — only
    the pinned slow links — so the shrinker reduces ``kept`` to empty and
    the failure survives, same kind, same error."""
    kwargs = dict(
        strategy="doublevote", adversaries=COALITION, extra=EXTRA,
        group=group4, allow_excess=True, time_limit=10.0,
    )
    scenario = make_scenario("binary")
    first = run_case(scenario, 4, 1, SAFETY_SEED, **kwargs)
    assert not first.ok and first.kind == "safety"
    assert first.plan_size > 0  # there is chaos to discard
    shrunk = shrink_case(
        scenario, 4, 1, SAFETY_SEED, first_failure=first, **kwargs
    )
    assert not shrunk.ok
    assert shrunk.kind == first.kind
    assert shrunk.error == first.error
    assert shrunk.minimized
    assert shrunk.kept == []
    assert 0 < shrunk.shrink_runs <= len(first.kept)
    assert "--keep none" in shrunk.replay_command()
