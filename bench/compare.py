"""Compare two sets of benchmark results.

    python3 bench/compare.py A/ B/

A set is a directory holding the ``<workload>.json`` files that
``run.py --out`` writes, at any depth (one sub-directory per seed is the
usual layout).  For every (workload, end-to-end metric) pair this prints
both medians, the ratio B/A with A as its base, and a verdict against
the metric's bound in ``BENCHMARK.json``:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread of either set (distance between
  the quartiles over the median) is wider than the bound, so a move of
  that size cannot be told from noise;
* ``ok`` — otherwise.

Exits non-zero on any ``worse`` or when B has more failed operations
than A.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

from run import load_contract

Runs = Dict[str, List[Dict[str, Any]]]


def load_set(directory: str) -> Runs:
    """workload -> its untraced result records under ``directory``."""
    runs: Runs = {}
    for parent, _dirs, files in sorted(os.walk(directory)):
        for name in sorted(files):
            if not name.endswith(".json") or name.endswith((".traced.json", ".spans.json")):
                continue
            with open(os.path.join(parent, name)) as fh:
                record = json.load(fh)
            runs.setdefault(record["workload"], []).append(record)
    return runs


def median_and_spread(records: List[Dict[str, Any]], metric: str) -> Tuple[float, float]:
    values = [record["metrics"][metric]["value"] for record in records]
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load_set(argv[0]), load_set(argv[1])
    metrics = load_contract()["end_to_end"]
    bad = 0
    print(f"{'workload':16s} {'metric':14s} {'A':>12s} {'B':>12s} {'B/A':>7s} "
          f"{'spread A':>8s} {'spread B':>8s} {'bound':>6s}  verdict")
    for workload in sorted(set(a) & set(b)):
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            med_a, spread_a = median_and_spread(a[workload], name)
            med_b, spread_b = median_and_spread(b[workload], name)
            change = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                change = -change
            if change > bound:
                verdict = "worse"
                bad += 1
            elif max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:16s} {name:14s} {med_a:12.4f} {med_b:12.4f} "
                  f"{med_b / med_a:7.3f} {spread_a:8.3f} {spread_b:8.3f} "
                  f"{bound:6.2f}  {verdict}")
        failed_a = sum(r["failed"] for r in a[workload])
        failed_b = sum(r["failed"] for r in b[workload])
        attempted_a = sum(r["attempted"] for r in a[workload])
        attempted_b = sum(r["attempted"] for r in b[workload])
        verdict = "ok"
        if failed_b / attempted_b > failed_a / attempted_a:
            verdict = "worse"
            bad += 1
        print(f"{workload:16s} {'failed_share':14s} {failed_a:5d}/{attempted_a:<6d} "
              f"{failed_b:5d}/{attempted_b:<6d} {'':33s} {verdict}")
    for workload in sorted(set(a) ^ set(b)):
        print(f"{workload}: present in only one set, not compared")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
