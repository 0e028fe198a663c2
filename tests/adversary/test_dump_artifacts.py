"""Liveness failures leave a full protocol-state dump on disk.

``REPRO_FILE`` captures the one-line replay command; ``ADV_DUMP_DIR``
captures what the line cannot: the watchdog's sentinel fingerprints and
failure-detector suspects at the moment of the stall — or, for a heal
case, what the orchestrator tried — one timestamped JSON artifact per
failure: the file a CI run uploads so the stall is diagnosable without
replaying it.
"""

import json

from repro.testing.schedule import (
    CaseResult,
    make_scenario,
    report_failures,
    run_case,
    write_failure_dumps,
)

from tests.adversary.conftest import COALITION

# ``liveness_failure`` is the pinned t+1 doublevote livelock, run once per
# session by ``conftest.py``.


def test_dump_dir_unset_writes_nothing(liveness_failure, monkeypatch):
    monkeypatch.delenv("ADV_DUMP_DIR", raising=False)
    assert write_failure_dumps([liveness_failure]) == []


def test_liveness_failure_writes_timestamped_artifact(
    liveness_failure, tmp_path, monkeypatch
):
    monkeypatch.setenv("ADV_DUMP_DIR", str(tmp_path / "dumps"))
    paths = write_failure_dumps([liveness_failure])
    assert len(paths) == 1
    name = paths[0].rsplit("/", 1)[-1]
    assert name.startswith("liveness-")
    assert "binary-doublevote-0x0" in name and name.endswith(".json")

    artifact = json.loads(open(paths[0]).read())
    assert artifact["kind"] == "liveness"
    assert artifact["adversaries"] == COALITION
    assert artifact["replay"] == liveness_failure.replay_command()
    # the dump itself: sentinel fingerprints + detector suspicion (this
    # pinned case times out rather than stalls, so "stalled" is empty —
    # the per-sentinel fingerprints are the diagnosable payload)
    assert artifact["dump"]["sentinels"]
    assert "stalled" in artifact["dump"]
    assert "suspects" in artifact["dump"]


def test_colliding_names_get_serial_suffixes(
    liveness_failure, tmp_path, monkeypatch
):
    monkeypatch.setenv("ADV_DUMP_DIR", str(tmp_path))
    first = write_failure_dumps([liveness_failure])
    second = write_failure_dumps([liveness_failure])
    assert first != second and len(first) == len(second) == 1


def test_report_failures_links_the_artifacts(
    liveness_failure, tmp_path, monkeypatch
):
    monkeypatch.setenv("ADV_DUMP_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_FILE", str(tmp_path / "repro.txt"))
    text = report_failures([liveness_failure])
    assert text.startswith("REPRO:")
    assert "state dump: " in text
    # the repro file carries the pointer too
    assert "state dump: " in open(tmp_path / "repro.txt").read()


def test_failures_without_dumps_are_skipped(tmp_path, monkeypatch):
    monkeypatch.setenv("ADV_DUMP_DIR", str(tmp_path))
    safety = CaseResult(
        ok=False, scenario="binary", strategy="doublevote", n=4, t=1,
        case_seed=2, adversaries=[2, 3], plan_size=0, kept=[],
        kind="safety", error="agreement violated",
    )
    assert write_failure_dumps([safety]) == []


def test_unhealed_case_dumps_the_orchestrators_story(tmp_path, monkeypatch):
    """A heal case that never replaces its intruder is a liveness failure
    whose dump is the orchestrator's: every repair it tried, in order."""
    monkeypatch.setenv("ADV_DUMP_DIR", str(tmp_path))
    unhealed = run_case(
        make_scenario("heal"), 4, 1, 0x93FC29BF0FB27A7C,
        strategy="silence", adversaries=[2],
    )
    assert not unhealed.ok and unhealed.kind == "liveness"
    (path,) = write_failure_dumps([unhealed])
    assert "heal-silence-0x93fc29bf0fb27a7c" in path
    heals = json.loads(open(path).read())["dump"]["heals"]
    assert heals == unhealed.facts["heals"]
    assert heals[0]["action"] == "restart"
    assert {h["outcome"] for h in heals} == {"restarted", "rolled-back"}
