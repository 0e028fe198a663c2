"""Self-check of the benchmark; run explicitly (tier-1 collects ``tests/`` only):

    python3 -m pytest -q bench/test_selfcheck.py
"""

import json
import os
import re
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import layers  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SMOKE_OPS = 12


def _source_files():
    root = os.path.join(run.ROOT, "src", "repro")
    for parent, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                yield os.path.relpath(os.path.join(parent, name), root).replace(os.sep, "/")


def test_every_source_file_maps_to_one_slice_and_no_row_is_dead():
    first_match = {}
    for relpath in _source_files():
        assert layers.module_slice(relpath) in layers.SLICES
        row = next(p for p, _ in layers.MODULE_SLICES if relpath.startswith(p))
        first_match.setdefault(row, relpath)
    dead = [p for p, _ in layers.MODULE_SLICES if p not in first_match]
    assert not dead, f"rows matching no file: {dead}"


def test_benchmark_json_meets_the_contract():
    contract = run.load_contract()
    assert sorted(contract) == ["command", "end_to_end", "paths", "per_layer",
                                "run_seconds", "workloads"]
    assert contract["paths"] == ["bench"] and 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [w["name"] for w in contract["workloads"]]
    for workload in contract["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in contract["end_to_end"] + contract["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert os.path.getsize(os.path.join(run.ROOT, "BENCHMARK.json")) <= 64 * 1024


def _smoke(workload, trace, tag):
    work = os.path.join(run.ROOT, ".bench_work", f"selfcheck-{os.getpid()}-{tag}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        _, result = run.spawn_worker(
            workload, 7, 1.0, trace, work, ["--fixed-ops", str(SMOKE_OPS)])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result


def test_smoke_of_each_workload_passes_its_checks():
    contract = run.load_contract()
    declared = {m["name"] for m in contract["end_to_end"]} - {"setup_s"}
    for workload in (w["name"] for w in contract["workloads"]):
        result = _smoke(workload, 0, workload)
        assert result["failed"] == 0 and not result["problems"], (workload, result)
        assert result["ops"] >= SMOKE_OPS
        assert set(result["metrics"]) == declared
        assert all(value > 0 for value in result["metrics"].values())


def test_traced_smoke_prints_exactly_the_declared_per_layer_metrics():
    declared = {m["name"] for m in run.load_contract()["per_layer"]}
    result = _smoke("sim-atomic-lan", 1, "traced")
    metrics = result["metrics"]
    assert set(metrics) == declared
    assert all(NAME.match(name) for name in metrics)
    slices = sum(metrics[f"self_ms_per_op.{s}"] for s in layers.SLICES)
    assert abs(slices - metrics["self_ms_per_op.total"]) <= 0.01 * slices
    json.dumps(metrics)  # every value is a plain number
