"""Runs one workload in this (fresh) process; started by ``run.py``.

Prints ``READY`` when set-up and warm-up are done — ``run.py`` takes the
time from spawning the interpreter to that line as ``setup_s`` — and, as
its last line, one JSON object with the counts and the metric values.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from typing import Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome, Tracer  # noqa: E402

#: shares of ``--seconds`` a traced run spends untraced and traced
PLAIN_SHARE = TRACED_SHARE = 0.4


class _SetupOnly(Exception):
    """Raised from ``ready()`` to end a set-up-only run after set-up."""


def _ready_printer(setup_only: bool):
    """``ready()`` for the segments: announces the first one only."""
    printed = False

    def ready() -> None:
        nonlocal printed
        if not printed:
            printed = True
            print("READY", flush=True)
        if setup_only:
            raise _SetupOnly

    return ready


def end_to_end(outcome: Outcome) -> Dict[str, float]:
    summary = outcome.window.summary()
    return {
        "ops_per_s": summary["ops_per_s"],
        "op_ms_p50": summary["op_ms_p50"],
        "cpu_s_per_op": summary["cpu_s_per_op"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(name: str, plain: Outcome, recorded: Optional[Outcome],
              traced: Outcome, tracer: Tracer, op_us: Dict[str, float]
              ) -> Dict[str, float]:
    """The per-layer metrics from the untraced, recorder-only (simulator
    only) and traced segments."""
    ops = max(1, traced.window.ops)
    layer = traced.layer
    self_s, calls = layers.bucket_profile(tracer.profile)
    plain_summary = plain.window.summary()
    plain_op_s = plain_summary["wall_s_per_op"]
    simulated = name not in workloads.TCP_SPECS

    def counter(key: str) -> float:
        return layer.get("ctr." + key, 0.0)

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    out = {
        "op_ms_p90": plain_summary["op_ms_p90"],
        "op_samples": plain_summary["op_samples"],
        "failed_share": failed / max(1, attempted),
        "sim_s_per_op": plain.layer.get("sim_seconds", 0.0) / max(1, plain.window.ops),
        "sim_per_wall": plain.layer.get("sim_seconds", 0.0) / plain.window.wall_s,
        "trace_overhead_ratio": traced.window.summary()["wall_s_per_op"] / plain_op_s,
        "recorder_overhead_ratio": (
            recorded.window.summary()["wall_s_per_op"] / plain_op_s
            if recorded is not None else 0.0),
        # group totals (all four replicas) per op
        "count_per_op.messages": (
            layer["messages"] if simulated else counter("tcp.frames_sent")) / ops,
        "count_per_op.bytes": (
            layer["bytes"] if simulated else counter("tcp.bytes_sent")) / ops,
        "count_per_op.modexp": counter("crypto.modexp") / ops,
        "count_per_op.wal_appends": counter("recovery.wal.slots") / ops,
        # every replica counts each round, so this one is per replica
        "count_per_op.atomic_rounds": counter("atomic.rounds") / workloads.N / ops,
        "atomic.batch_size_mean": layer.get("atomic.batch_size_mean", 0.0),
        "tcp.retransmissions": layer.get("tcp.retransmissions", 0.0),
        "tcp.reconnects": layer.get("tcp.reconnects", 0.0),
        "client.retries": counter("client.retransmits"),
        "reqserver.rejected": sum(
            value for key, value in layer.items()
            if key.startswith("ctr.reqserver.shed.")),
        "degraded.op_ms_p50": layer.get("degraded.op_ms_p50", 0.0),
        "recovery.catchup_s": layer.get("recovery.catchup_s", 0.0),
    }
    for slice_name, seconds in self_s.items():
        out[f"self_ms_per_op.{slice_name}"] = seconds * 1e3 / ops
    for fn, count in calls.items():
        out[f"calls_per_op.{fn}"] = count / ops
    for timer, micros in op_us.items():
        out[f"op_us.{timer}"] = micros
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--fixed-ops", type=int, default=None,
                        help="run exactly this many ops instead of --seconds")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    # The load is one thread.  Pin it to the last CPU it may use: the first
    # one is where init, kernel threads and the caller of this benchmark run,
    # and sharing a CPU with them adds run-to-run spread on a small box.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    name, seed, fixed = args.workload, args.seed, args.fixed_ops
    ready = _ready_printer(args.setup_only)

    def segment(tag: str, seconds: float, tracer: Optional[Tracer],
                epilogue: bool, fixed_ops: Optional[int]) -> Outcome:
        workdir = os.path.join(args.workdir, tag)
        os.makedirs(workdir)
        return workloads.run_workload(
            name, seed, seconds, workdir, tracer, ready, epilogue, fixed_ops)

    if not args.trace:
        try:
            outcomes = [segment("plain", args.seconds, None, True, fixed)]
        except _SetupOnly:
            return 0
        metrics = end_to_end(outcomes[0])
    else:
        simulated = name not in workloads.TCP_SPECS
        if simulated:
            # same seed, same payloads: the three repetitions do equal work
            fixed = fixed or workloads.SIM_PAYLOADS
        plain = segment("plain", args.seconds * PLAIN_SHARE, None, False, fixed)
        recorded = None
        if simulated:
            recorded = segment("recorded", 0.0, Tracer(profiling=False), False, fixed)
        tracer = Tracer()
        traced = segment("traced", args.seconds * TRACED_SHARE, tracer, True, fixed)
        os.makedirs(os.path.join(args.workdir, "ops"))
        op_us = layers.time_ops(seed, os.path.join(args.workdir, "ops"))
        metrics = per_layer(name, plain, recorded, traced, tracer, op_us)
        outcomes = [o for o in (plain, recorded, traced) if o is not None]
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                           "spans": tracer.spans}, fh)

    print(json.dumps({
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "problems": [p for o in outcomes for p in o.problems],
        "ops": outcomes[-1].window.ops,
        "op_samples": int(outcomes[0].window.summary()["op_samples"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
