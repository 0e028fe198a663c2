"""State-dump artifacts for liveness failures (``ADV_DUMP_DIR``).

A ``REPRO:`` line names a failing case; it cannot hold what the
:class:`~repro.adversary.watchdog.LivenessWatchdog` saw when the run
stalled.  :func:`write_failure_dumps` puts that — sentinel fingerprints,
stall ages, failure-detector suspects — into one timestamped JSON file
per failure, which :func:`repro.testing.schedule.report_failures` links
from its report and CI uploads next to the repro lines.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from typing import Any, List, Sequence


def dump_artifact_path(dump_dir: str, result: Any) -> str:
    """A unique, timestamped artifact path for one failure's state dump."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    base = (
        f"liveness-{stamp}-{result.scenario}-{result.strategy}"
        f"-{hex(result.case_seed)}"
    )
    path = os.path.join(dump_dir, f"{base}.json")
    serial = 1
    while os.path.exists(path):
        path = os.path.join(dump_dir, f"{base}-{serial}.json")
        serial += 1
    return path


def write_failure_dumps(failures: Sequence[Any]) -> List[str]:
    """Write each failure's watchdog dump to ``ADV_DUMP_DIR``.

    ``failures`` are the results handed to ``report_failures``; those
    without a dump (safety failures, cases run without a watchdog, heal
    results) are skipped.  Returns the written paths — empty when the
    variable is unset or nothing carried a dump.
    """
    dump_dir = os.environ.get("ADV_DUMP_DIR")
    if not dump_dir:
        return []
    os.makedirs(dump_dir, exist_ok=True)
    written: List[str] = []
    for result in failures:
        if not getattr(result, "dump", None):
            continue
        path = dump_artifact_path(dump_dir, result)
        artifact = {
            "written_at": datetime.now(timezone.utc).isoformat(),
            "scenario": result.scenario,
            "strategy": result.strategy,
            "n": result.n,
            "t": result.t,
            "case": hex(result.case_seed),
            "adversaries": result.adversaries,
            "kind": result.kind,
            "error": result.error,
            "replay": result.replay_command(),
            "dump": result.dump,
        }
        with open(path, "w") as f:
            json.dump(artifact, f, indent=2, sort_keys=True, default=repr)
            f.write("\n")
        written.append(path)
    return written
