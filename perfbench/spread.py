"""Run the benchmark once per seed, one run at a time, and print the spread of
each metric: the distance between the first and third quartiles of the runs
as a share of their median, as the benchmark's bounds are checked.

    python3 perfbench/spread.py --workload bfs-random --seeds 101-110 --seconds 30
    python3 perfbench/spread.py --workload bfs-random --seeds 101-105 --json out.json

Run from the root of a checkout.  With --json, every run's metrics and the
summary are also written to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "iqr_over_median": (q3 - q1) / median,
            "min": min(values), "max": max(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="101-110", help="first-last, inclusive")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--json", help="also write the runs and summary here")
    args = ap.parse_args()
    runs = []
    for seed in seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append({m: v["value"] for m, v in result["metrics"].items()})
        print(seed, " ".join(f"{m}={v:.5g}" for m, v in runs[-1].items()),
              f"({time.perf_counter() - t0:.1f} s)", flush=True)
    table = {m: summary([r[m] for r in runs]) for m in runs[0]}
    for metric, s in table.items():
        print(f"{metric:<14} median {s['median']:.5g}  iqr/median {s['iqr_over_median']:.3f}"
              f"  range {s['min']:.5g}..{s['max']:.5g}")
    if args.json:
        Path(args.json).write_text(json.dumps({"runs": runs, "summary": table}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
