"""Reference figures: every workload on several seeds, one run at a time.

    python3 perfbench/figures.py --seeds 1-10 --seconds 25 [--workloads a,b]

Prints one Markdown row per workload and metric: the median of the runs and
the spread, the distance between the first and third quartiles as a share of
the median. A last row per workload gives unscaled wall-clock ops_per_s,
read from the run reports. Also prints nproc and the Python version.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPORTS = HERE.parent / ".perfbench_out"
WORKLOADS = ("cell_sweep", "torus_images", "tensor_module", "cli_session")


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"seeds {args.seeds.start}-{args.seeds.stop - 1}, --seconds {args.seconds}")
    print("| workload | metric | median | IQR/median | failed/attempted |")
    print("|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        values, shares, correct = {}, set(), True
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            shares.add(f"{result['failed']}/{result['attempted']}" if result["failed"] else "0")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            report = json.loads((REPORTS / f"run-{workload}-seed{seed}.json").read_text())
            values.setdefault("wall-clock ops_per_s", []).append(
                statistics.median(report["wall_rates"]))
            print(f"<!-- {workload} seed {seed}: "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
                  + " -->", flush=True)
        for name, vals in values.items():
            print(f"| {workload} | {name} | {statistics.median(vals):.4g} | {spread(vals):.3f} "
                  f"| {', '.join(sorted(shares))}{'' if correct else ' (wrong outputs)'} |",
                  flush=True)


if __name__ == "__main__":
    main()
