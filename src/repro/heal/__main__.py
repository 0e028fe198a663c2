"""``python -m repro.heal`` — run or replay closed-loop heal campaigns.

One case: an n-replica group under live intrusion must autonomously
detect, drain, and replace the compromised replica, converge on
identical state, and reject a renewed attack from pre-refresh shares.

Environment:

* ``REPRO_FILE`` — append one ``REPRO:`` replay line per failing case
  (the CI artifact of a failing heal job);
* ``REPRO_BENCH_DIR`` — export one ``BENCH_heal-*.json`` record per run
  carrying the ``heal.*`` counters and phase timings.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from typing import List, Optional, Sequence

from repro.adversary.strategies import STRATEGIES
from repro.common import rng as rng_mod
from repro.heal.scenario import HealResult, run_heal_case
from repro.obs.export import bench_dir_from_env, make_record, write_record
from repro.obs.recorder import MemoryRecorder
from repro.testing.schedule import report_failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.heal",
        description="Closed-loop intrusion-recovery campaigns for SINTRA.",
    )
    parser.add_argument(
        "--strategy", default="doublevote", choices=sorted(STRATEGIES),
        help="intrusion strategy the victim replica runs",
    )
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--t", type=int, default=1)
    parser.add_argument(
        "--case", default=None,
        help="replay exactly this case seed (hex or int)",
    )
    parser.add_argument(
        "--victim", type=int, default=None,
        help="pin the compromised slot (default: derived from the case seed)",
    )
    parser.add_argument(
        "--seed", default="0xc0ffee",
        help="campaign root seed; case i uses derive(seed, 'heal', i)",
    )
    parser.add_argument("--iterations", type=int, default=1)
    parser.add_argument("--deadline", type=float, default=20.0)
    parser.add_argument("--time-limit", type=float, default=2000.0)
    parser.add_argument(
        "--bench-name", default=None,
        help="override the exported BENCH record name",
    )
    args = parser.parse_args(argv)

    cases: List[int]
    if args.case is not None:
        cases = [rng_mod.parse_seed(args.case)]
    else:
        root = rng_mod.parse_seed(args.seed)
        cases = [
            rng_mod.derive(root, "heal", i).getrandbits(32)
            for i in range(args.iterations)
        ]

    recorder = MemoryRecorder()
    results: List[HealResult] = []
    failures: List[HealResult] = []
    for case_seed in cases:
        with tempfile.TemporaryDirectory(prefix="repro-heal-") as workdir:
            result = run_heal_case(
                args.strategy,
                case_seed,
                workdir,
                n=args.n,
                t=args.t,
                victim=args.victim,
                recorder=recorder,
                deadline=args.deadline,
                time_limit=args.time_limit,
            )
        results.append(result)
        status = "ok" if result.ok else "FAIL"
        print(
            f"[{status}] strategy={result.strategy} case={hex(result.case_seed)}"
            f" victim={result.victim} detected={result.detected}"
            f" replaced={result.replaced} epoch={result.final_epoch}"
            f" digests_agree={result.digests_agree}"
            f" stale_rejected={result.stale_share_rejected}"
        )
        if not result.ok:
            failures.append(result)

    bench_dir = bench_dir_from_env()
    if bench_dir:
        name = args.bench_name or f"heal-{args.strategy}-n{args.n}t{args.t}"
        record = make_record(
            name,
            experiment="heal-campaign",
            meta={
                "strategy": args.strategy,
                "n": args.n,
                "t": args.t,
                "cases": [hex(c) for c in cases],
            },
            metrics={
                "cases": float(len(results)),
                "failures": float(len(failures)),
                "replaced": float(sum(1 for r in results if r.replaced)),
            },
            recorder=recorder,
            outcome="ok" if not failures else "fail",
        )
        path = write_record(bench_dir, record)
        print(f"bench record: {path}")

    if failures:
        print(report_failures(failures))
        return 1
    print(
        f"OK: {len(results)} heal case(s) strategy={args.strategy}"
        f" n={args.n} t={args.t}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
