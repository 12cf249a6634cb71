"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload search-pcc --seeds 1-10 --seconds 40

Spread is the interquartile distance as a share of the median, computed as
statistics.quantiles(values, n=4) gives the quartiles. Runs go one after
another, so they do not compete for the machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from benchstats import spread

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", default="40")
    args = ap.parse_args()
    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        runs.append(result)
        print("  " + " | ".join(l for l in proc.stdout.splitlines() if l.startswith("# pass walls")), flush=True)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        sp = spread(values) if len(values) > 1 and med else 0.0
        shown = " ".join(f"{v:.4g}" for v in values)
        print(f"{name:36s} median {med:<12.6g} spread {sp:6.3f}  [{shown}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
