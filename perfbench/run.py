"""qck benchmark.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Runs from the root of a source checkout (it needs src/qck). Each run starts
the workload in its own worker process and, untraced, first starts
SETUP_PROBES more workers that only set up. The last line of standard output
is one JSON object: correct, attempted, failed and the metrics, end-to-end
ones untraced and per-layer ones traced. The worker's full report is kept in
.perfbench_out/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cell_sweep", "torus_images", "tensor_module", "cli_session")
SETUP_PROBES = 6  # setup_s is the median of these and the measured worker's set-up
DEADLINE_S = 170  # a run ends within 180 s


def start_worker(args, workdir, deadline, setup_only=False):
    """Run one worker; returns its report. Its setup_s is the worker's CPU
    time up to its first timed operation, scaled to the reference host speed;
    wall_setup_s is the wall time from just before the process starts."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - started))
    finally:
        if proc.poll() is None:  # timed out or interrupted: end the worker and its child
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["wall_setup_s"] = report["setup_done"] - started
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "qck" / "__init__.py").is_file():
        print(f"no qck sources under {ROOT / 'src'}: run from a qck checkout", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        probes = [start_worker(args, workdir, deadline, setup_only=True)
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        report = start_worker(args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups = [p["setup_s"] for p in probes + [report]]

    if args.trace:
        metrics = report["metrics"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": statistics.median(report["rates"]), "unit": "1/s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    report["setup_samples_s"] = setups
    kind = "trace" if args.trace else "run"
    (out_dir / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(json.dumps(report))

    op_ms = report["op_ms"]
    print(f"{args.workload} seed {args.seed}: {report['attempted']} operations attempted, "
          f"{len(report.get('rates', [])) or 2} rounds, per-op p50 {op_ms.get('p50', 0):.1f} ms "
          f"p90 {op_ms.get('p90', 0):.1f} ms over {op_ms['n']} timed")
    if args.trace:
        top = sorted(report["trace"].items(), key=lambda kv: -kv[1][2])[:8]
        for key, (calls, _total, self_s, _units) in top:
            print(f"  {key}: {calls} calls, self {self_s:.3f} s")
    else:
        print(f"  wall clock, unscaled: {statistics.median(report['wall_rates']):.4g} ops/s, "
              f"setup {statistics.median(p['wall_setup_s'] for p in probes + [report]):.4g} s")
    result = {
        "correct": report["wrong"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
