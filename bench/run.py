"""Host-time benchmark of the SINTRA reproduction.

    python3 bench/run.py --seed 11 [--workload NAME] [--trace 1] [--out DIR]

Runs each workload in a fresh subprocess, checks its outputs, and prints
every metric by name with its unit; the last line printed for a workload
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` (default) the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones (see ``BENCHMARK.json`` and README.md).
Exits non-zero when a workload's outputs are wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
#: fresh processes whose set-up time is measured; ``setup_s`` is their median
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170.0


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_commit() -> str:
    """HEAD of the checkout ``run.py`` sits in; the driver's checkout is not
    a repository (and may sit inside another one, which is not asked)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def spawn_worker(workload: str, seed: int, seconds: float, trace: int,
                 workdir: str, extra: List[str]
                 ) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Run one worker; returns (seconds from spawn to READY, its result)."""
    os.makedirs(workdir)
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", workdir] + extra
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        # readline() has no timeout of its own: a worker stuck in set-up is killed
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - start
            rest = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            watchdog.cancel()
    if first.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(
            f"worker for {workload} failed (exit {proc.returncode}): "
            f"{(first + rest)[-400:]!r}")
    lines = rest.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def run_workload(contract: Dict[str, Any], workload: str, seed: int,
                 seconds: float, trace: int, out_dir: Optional[str]
                 ) -> Dict[str, Any]:
    """All the processes of one workload; returns its result record."""
    declared = contract["per_layer" if trace else "end_to_end"]
    work = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    extra = []
    if trace and out_dir:
        extra = ["--spans-out", os.path.join(out_dir, f"{workload}.spans.json")]
    try:
        setups = []
        if not trace:
            for k in range(SETUP_REPEATS - 1):
                ready_s, _ = spawn_worker(
                    workload, seed, seconds, 0, os.path.join(work, f"setup{k}"),
                    ["--setup-only"])
                setups.append(ready_s)
        ready_s, result = spawn_worker(
            workload, seed, seconds, trace, os.path.join(work, "run"), extra)
        setups.append(ready_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # leave it if another run uses it
            os.rmdir(os.path.dirname(work))

    values = dict(result["metrics"])
    if not trace:
        values["setup_s"] = statistics.median(setups)
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(names))}")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(), "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"], "failed": result["failed"],
        "problems": result["problems"], "timed_ops": result["ops"],
        "op_samples": result["op_samples"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def report(record: Dict[str, Any]) -> None:
    print(f"== {record['workload']}  seed={record['seed']} trace={record['trace']} "
          f"commit={record['commit'][:12]} nproc={record['nproc']} "
          f"python={record['python']}")
    if record["workload"].startswith("tcp-"):
        print("   loopback 127.0.0.1, injected delay 0 (latency is processor "
              "time); one process, one thread, closed loop")
    else:
        print("   discrete-event simulator, no sockets; times are host time per "
              "delivery; one process, one thread")
    print(f"   attempted={record['attempted']} failed={record['failed']} "
          f"timed_ops={record['timed_ops']} op_samples={record['op_samples']}")
    for problem in record["problems"]:
        print(f"   CHECK FAILED: {problem}")
    for name, metric in record["metrics"].items():
        print(f"   {name:34s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed", "metrics")}),
          flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: no src/repro next to bench/ — nothing to measure",
              file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="directory for one JSON result file per workload")
    args = parser.parse_args(argv)
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    all_correct = True
    for workload in ([args.workload] if args.workload else names):
        record = run_workload(
            contract, workload, args.seed, args.seconds, args.trace, args.out)
        report(record)
        all_correct = all_correct and record["correct"]
        if args.out:
            suffix = ".traced.json" if args.trace else ".json"
            with open(os.path.join(args.out, workload + suffix), "w") as fh:
                json.dump(record, fh, indent=1)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
