"""One workload in its own process: set-up, whole rounds of operations, checks.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
                                --workdir DIR [--setup-only]

run.py starts it. It prints one JSON object on standard output: set-up time,
operation counts, per-round rates, per-operation CPU times and peak memory;
with --trace 1 also the per-function aggregates and the per-layer metrics.
Times are CPU seconds scaled to the reference host speed (see calibrate.py);
`setup_done` and `wall_rates` are the unscaled wall-clock view.

Untraced, the worker repeats the workload's whole operation list until the
next round would end more than half a round past --seconds. Traced, it runs
the list once untraced and once with the tracer on (in this process, or in
each `qck` child for cli_session); the tracer also covers input generation.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent

PER_LAYER = [
    "cli.import_s",
    "cli.build_parser.self_s",
    "cli.main.self_s",
    "cli.emit.bytes",
    "weyl.split_double_word.calls",
    "weyl.split_double_word.self_s",
    "weyl.all_double_words.self_s",
    "intlinalg.rank_over_Q.calls",
    "intlinalg.rank_over_Q.self_s",
    "intlinalg.invert_rational.calls",
    "intlinalg.invert_rational.self_s",
    "intlinalg.smith_normal_form.calls",
    "intlinalg.smith_normal_form.self_s",
    "intlinalg.skew_normal_form.calls",
    "intlinalg.skew_normal_form.self_s",
    "intlinalg.hermite_column_basis.self_s",
    "intlinalg.mat_mul.self_s",
    "strings.string_matrices.calls",
    "strings.string_matrices.self_s",
    "strings.invariants.self_s",
    "strings.cprime_multipliers.self_s",
    "strings.psi_check.self_s",
    "appendix_congruence.build_word_matrices.calls",
    "appendix_congruence.build_word_matrices.self_s",
    "appendix_congruence.congruence_check.self_s",
    "wiring.enumerate_paths.calls",
    "wiring.enumerate_paths.paths",
    "wiring.enumerate_paths.self_s",
    "wiring.enumerate_families.calls",
    "wiring.enumerate_families.families",
    "wiring.enumerate_families.self_s",
    "wiring.minor_image_oracle.self_s",
    "wiring.verify_relations.self_s",
    "wiring.expression_image.self_s",
    "qtorus.coeff_mul.calls",
    "qtorus.coeff_mul.self_s",
    "qtorus.coeff_add.calls",
    "qtorus.coeff_add.self_s",
    "qtorus.QTorusElement.mul.calls",
    "qtorus.QTorusElement.mul.terms",
    "qtorus.QTorusElement.mul.self_s",
    "qtorus.QTorusElement.add.self_s",
    "slq2_tensor.element_action.calls",
    "slq2_tensor.element_action.self_s",
    "slq2_tensor.monomial_action.calls",
    "slq2_tensor.monomial_action.self_s",
    "pivots.check_certificate.self_s",
    "pivots.is_pivot.calls",
    "trace.overhead_ratio",
]
# metric prefix -> trace key, where the metric drops the class name
TRACE_KEYS = {
    "slq2_tensor.element_action": "slq2_tensor.TensorModule.element_action",
    "slq2_tensor.monomial_action": "slq2_tensor.TensorModule.monomial_action",
}
FIELDS = {
    "calls": tracing.CALLS,
    "self_s": tracing.SELF_S,
    "paths": tracing.UNITS_DONE,
    "families": tracing.UNITS_DONE,
    "terms": tracing.UNITS_DONE,
}
CALIBRATE_EVERY_S = 0.1
UNITS = {"self_s": "s", "import_s": "s", "bytes": "bytes", "overhead_ratio": "ratio"}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages = []
        self.op_s = []

    def note(self, message):
        if len(self.messages) < 5:
            self.messages.append(message)
            print(message, file=sys.stderr)


def run_round(wl, tally, tracer=None):
    """Every operation once; returns (operations completed, CPU seconds,
    wall seconds, host slowness during the round). Checks run outside the
    timed spans, with the tracer paused. The host-speed loop runs between
    operations, at most every CALIBRATE_EVERY_S and at least once."""
    done, cpu, wall, calibration = 0, 0.0, 0.0, []
    last = time.perf_counter()
    for op in wl.ops:
        size = wl.size(op)
        tally.attempted += size
        start, start_cpu = time.perf_counter(), calibrate.cpu_seconds()
        try:
            out = wl.run(op)
        except Exception:  # a failed operation is counted and the run goes on
            tally.failed += size
            tally.note(traceback.format_exc())
            continue
        op_cpu = calibrate.cpu_seconds() - start_cpu
        wall += time.perf_counter() - start
        if tracer:
            tracer.active = False
        error = wl.check(op, out)
        if tracer:
            tracer.active = True
        if error:
            tally.wrong += size
            tally.note(f"wrong output: {error}")
        done += size
        cpu += op_cpu
        tally.op_s.append(op_cpu)
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            calibration.append(calibrate.loop_seconds())
            last = time.perf_counter()
    if not calibration:
        calibration.append(calibrate.loop_seconds())
    return done, cpu, wall, calibrate.slowness(calibration)


def import_seconds(env, repeats=5):
    """Fresh-process `import qck` minus a bare interpreter start (medians)."""
    times = {"pass": [], "import qck": []}
    for _ in range(repeats):
        for code, samples in times.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            samples.append(time.perf_counter() - start)
    return statistics.median(times["import qck"]) - statistics.median(times["pass"])


def per_layer(stats, extra):
    metrics = {}
    for name in PER_LAYER:
        prefix, field = name.rsplit(".", 1)
        if name in extra:
            value = extra[name]
        else:
            row = stats.get(TRACE_KEYS.get(prefix, prefix), [0, 0.0, 0.0, 0])
            value = row[FIELDS[field]]
        metrics[name] = {"value": value, "unit": UNITS.get(field, "count")}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    tracer = tracing.Tracer() if args.trace else None
    if args.workload == "cli_session":
        import cli_session

        wl = cli_session.CliSession(args.seed, args.workdir)
        usage = resource.RUSAGE_CHILDREN
    else:
        import workloads

        if tracer:
            tracer.install()
        wl = workloads.WORKLOADS[args.workload](args.seed)
        if tracer:
            tracer.uninstall()
        usage = resource.RUSAGE_SELF
    wl.warm_up()
    report = {"setup_done": time.monotonic(), "setup_cpu_s": calibrate.cpu_seconds()}
    report["setup_s"] = report["setup_cpu_s"] / calibrate.slowness(
        [calibrate.loop_seconds() for _ in range(calibrate.SETUP_LOOPS)])
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tally = Tally()
    if args.trace:
        _, base_s, _, base_slowness = run_round(wl, tally)
        if args.workload == "cli_session":
            wl.traced = True
            _, traced_s, _, traced_slowness = run_round(wl, tally)
            stats = wl.trace_stats
        else:
            tracer.install()
            _, traced_s, _, traced_slowness = run_round(wl, tally, tracer)
            tracer.uninstall()
            stats = tracer.stats
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        extra = {
            "cli.import_s": import_seconds(env),
            "cli.emit.bytes": getattr(wl, "emit_bytes", 0),
            "trace.overhead_ratio": (traced_s / traced_slowness) / (base_s / base_slowness),
        }
        report["metrics"] = per_layer(stats, extra)
        report["trace"] = stats
    else:
        report["rates"], report["wall_rates"] = [], []
        start = time.perf_counter()
        while True:
            done, cpu, wall, slowness = run_round(wl, tally)
            report["rates"].append(done / cpu * slowness if cpu else 0.0)
            report["wall_rates"].append(done / wall if wall else 0.0)
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 0.5 / len(report["rates"])) >= args.seconds:
                break

    report.update(
        attempted=tally.attempted,
        failed=tally.failed,
        wrong=tally.wrong,
        messages=tally.messages,
        op_ms={"n": len(tally.op_s)},
        peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024,
    )
    if len(tally.op_s) > 1:
        report["op_ms"].update(p50=1000 * statistics.median(tally.op_s),
                               p90=1000 * statistics.quantiles(tally.op_s, n=10)[-1])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
