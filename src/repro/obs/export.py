"""``BENCH_*.json`` — the machine-readable benchmark artifact format.

One *record* captures one experiment run: identifying metadata, the
scalar metrics the CI perf gate compares, the per-phase latency breakdown
(histogram summaries of the ``phase.*`` instruments) and the full counter
registry.  Records are written one file per run (``BENCH_<name>.json``)
and can be combined into a *set* file (``benchmarks/baseline.json`` is
one) for committing a baseline.

All sim-derived fields are deterministic for a pinned seed, which is what
makes the CI diff a real regression gate rather than a noise filter; the
wall-clock fields are informational and never gated (see
:data:`UNGATED_METRICS`).
"""

from __future__ import annotations

import json
import math
import os
import re
from typing import Any, Dict, Mapping, Optional

from repro.obs.recorder import Recorder

#: format tags checked by the loader
SCHEMA_RECORD = "repro-bench/1"
SCHEMA_SET = "repro-bench-set/1"

#: metric keys excluded from regression gating (machine-dependent noise)
UNGATED_METRICS = frozenset({"wall_seconds"})

#: environment variable enabling the export pipeline (used by the
#: experiment runner and the benchmark suite alike)
BENCH_DIR_ENV = "REPRO_BENCH_DIR"

_NAME_RE = re.compile(r"[^A-Za-z0-9._+-]+")


def bench_dir_from_env() -> Optional[str]:
    """The export directory configured via ``REPRO_BENCH_DIR``, if any."""
    value = os.environ.get(BENCH_DIR_ENV, "").strip()
    return value or None


def safe_name(raw: str) -> str:
    """A filesystem-safe benchmark name."""
    return _NAME_RE.sub("-", raw).strip("-")


def make_record(
    name: str,
    *,
    experiment: str = "adhoc",
    meta: Optional[Mapping[str, Any]] = None,
    metrics: Optional[Mapping[str, float]] = None,
    recorder: Optional[Recorder] = None,
    outcome: str = "ok",
) -> Dict[str, Any]:
    """Assemble one benchmark record from a run's outputs."""
    snapshot = recorder.snapshot() if recorder is not None else Recorder().snapshot()
    histograms = snapshot.get("histograms", {})
    phases = {
        key[len("phase."):]: summary
        for key, summary in histograms.items()
        if key.startswith("phase.")
    }
    record = {
        "schema": SCHEMA_RECORD,
        "name": safe_name(name),
        "experiment": experiment,
        "outcome": outcome,
        "meta": dict(meta or {}),
        "metrics": {k: float(v) for k, v in (metrics or {}).items()},
        "phases": phases,
        "histograms": {
            key: summary for key, summary in histograms.items()
            if not key.startswith("phase.")
        },
        "counters": snapshot.get("counters", {}),
        "gauges": snapshot.get("gauges", {}),
    }
    validate_record(record)
    return record


def validate_record(record: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``record`` is a well-formed bench record."""
    if not isinstance(record, Mapping):
        raise ValueError("bench record must be a JSON object")
    if record.get("schema") != SCHEMA_RECORD:
        raise ValueError(f"unknown bench schema {record.get('schema')!r}")
    for key, kind in (("name", str), ("experiment", str), ("outcome", str),
                      ("meta", Mapping), ("metrics", Mapping),
                      ("phases", Mapping), ("counters", Mapping)):
        if not isinstance(record.get(key), kind):
            raise ValueError(f"bench record field {key!r} missing or mistyped")
    if not record["name"]:
        raise ValueError("bench record has an empty name")
    gauges = record.get("gauges", {})
    if not isinstance(gauges, Mapping):
        raise ValueError("bench record field 'gauges' mistyped")
    for section, values in (("metric", record["metrics"]),
                            ("counter", record["counters"]),
                            ("gauge", gauges)):
        for key, value in values.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{section} {key!r} is not numeric: {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{section} {key!r} is not finite: {value!r}")
    for phase, summary in record["phases"].items():
        if not isinstance(summary, Mapping) or "mean" not in summary:
            raise ValueError(f"phase {phase!r} lacks a histogram summary")


def write_record(directory: str, record: Mapping[str, Any]) -> str:
    """Write ``record`` as ``BENCH_<name>.json`` under ``directory``."""
    validate_record(record)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{record['name']}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def combine(records: Mapping[str, Mapping[str, Any]]) -> Dict[str, Any]:
    """Bundle records (name -> record) into one set document."""
    for record in records.values():
        validate_record(record)
    return {"schema": SCHEMA_SET, "benches": {k: dict(v) for k, v in sorted(records.items())}}


def load_source(path: str) -> Dict[str, Dict[str, Any]]:
    """Load bench records from ``path`` as a name -> record mapping.

    ``path`` may be a single record file, a combined set file, or a
    directory containing ``BENCH_*.json`` files.  Malformed entries raise
    ``ValueError`` with the offending file named.
    """
    if os.path.isdir(path):
        out: Dict[str, Dict[str, Any]] = {}
        for entry in sorted(os.listdir(path)):
            if entry.startswith("BENCH_") and entry.endswith(".json"):
                out.update(load_source(os.path.join(path, entry)))
        return out
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not a readable bench JSON file ({exc})") from exc
    if isinstance(doc, dict) and doc.get("schema") == SCHEMA_SET:
        benches = doc.get("benches")
        if not isinstance(benches, dict):
            raise ValueError(f"{path}: bench set without a 'benches' mapping")
        for name, record in benches.items():
            try:
                validate_record(record)
            except ValueError as exc:
                raise ValueError(f"{path}: bench {name!r}: {exc}") from exc
        return {name: record for name, record in benches.items()}
    try:
        validate_record(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return {doc["name"]: doc}
