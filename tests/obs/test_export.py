"""BENCH_*.json: record assembly, validation, files and set round-trips."""

import json
import math

import pytest

from repro.obs import export
from repro.obs.recorder import MemoryRecorder


def _recorder_with_data():
    rec = MemoryRecorder(clock=lambda: 0.0)
    rec.count("net.messages", 42)
    rec.observe("phase.collect", 1.5)
    rec.observe("phase.collect", 2.5)
    rec.observe("cpu.handler_s", 0.1)
    rec.set_gauge("node.0.cpu_s", 3.25)
    return rec


def test_make_record_splits_phases_from_histograms():
    record = export.make_record(
        "demo", experiment="table1", meta={"seed": 1},
        metrics={"sim_seconds": 9.0, "wall_seconds": 0.5},
        recorder=_recorder_with_data(),
    )
    assert record["schema"] == export.SCHEMA_RECORD
    assert record["phases"]["collect"]["count"] == 2
    assert record["phases"]["collect"]["mean"] == pytest.approx(2.0)
    assert "collect" not in record["histograms"]
    assert "cpu.handler_s" in record["histograms"]
    assert record["counters"]["net.messages"] == 42
    assert record["gauges"]["node.0.cpu_s"] == 3.25


def test_safe_name_sanitizes():
    assert export.safe_name("table1-LAN+I'net/atomic") == "table1-LAN+I-net-atomic"
    assert export.safe_name("fig4 LAN") == "fig4-LAN"


def test_write_and_load_record_roundtrip(tmp_path):
    record = export.make_record(
        "rt", metrics={"sim_seconds": 1.0}, recorder=_recorder_with_data()
    )
    path = export.write_record(str(tmp_path), record)
    assert path.endswith("BENCH_rt.json")
    loaded = export.load_source(path)
    assert loaded == {"rt": record}
    # a directory of records loads the same way
    assert export.load_source(str(tmp_path)) == {"rt": record}


def test_set_file_roundtrip(tmp_path):
    a = export.make_record("a", metrics={"m": 1.0})
    b = export.make_record("b", metrics={"m": 2.0})
    doc = export.combine({"a": a, "b": b})
    assert doc["schema"] == export.SCHEMA_SET
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    loaded = export.load_source(str(path))
    assert set(loaded) == {"a", "b"}
    assert loaded["b"]["metrics"]["m"] == 2.0


def test_validate_rejects_malformed_records():
    with pytest.raises(ValueError, match="schema"):
        export.validate_record({"schema": "nope"})
    with pytest.raises(ValueError, match="empty name"):
        export.validate_record(export.make_record("x") | {"name": ""})
    bad = export.make_record("x")
    bad["metrics"] = {"m": "fast"}
    with pytest.raises(ValueError, match="not numeric"):
        export.validate_record(bad)


def test_validate_rejects_non_numeric_gauges_and_counters(tmp_path):
    path = tmp_path / "BENCH_x.json"
    bad_values = [("alive", "numeric"), (True, "numeric"), (None, "numeric"),
                  (math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite")]
    for section in ("metrics", "gauges", "counters"):
        for value, why in bad_values:
            bad = export.make_record("x", recorder=_recorder_with_data())
            bad[section]["tcp.peer.1.state"] = value
            with pytest.raises(ValueError, match=rf"'tcp\.peer\.1\.state' is not {why}"):
                export.validate_record(bad)
            # the same check guards records read back from disk
            path.write_text(json.dumps(bad))
            with pytest.raises(ValueError, match="BENCH_x.json"):
                export.load_source(str(path))


def test_load_source_names_bad_files(tmp_path):
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="BENCH_bad.json"):
        export.load_source(str(bad))


def test_bench_dir_from_env(monkeypatch):
    monkeypatch.delenv(export.BENCH_DIR_ENV, raising=False)
    assert export.bench_dir_from_env() is None
    monkeypatch.setenv(export.BENCH_DIR_ENV, "  ")
    assert export.bench_dir_from_env() is None
    monkeypatch.setenv(export.BENCH_DIR_ENV, "out")
    assert export.bench_dir_from_env() == "out"
