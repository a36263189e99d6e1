"""Quick tests of the benchmark itself.

    python3 -m pytest perfbench -q        (or: python3 -m unittest discover perfbench)

Each workload runs a few of its operations; each checker must reject a
deliberately corrupted output; the metric names must match BENCHMARK.json;
and run.py must refuse to run outside a qck checkout.
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import cli_session  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qck.qtorus import QTorusElement  # noqa: E402


def tiny(wl, keep):
    wl.ops = [wl.ops[i] for i in keep]
    return wl


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in bench["per_layer"]], worker.PER_LAYER)
        self.assertEqual({m["name"] for m in bench["end_to_end"]},
                         {"setup_s", "ops_per_s", "peak_rss_mb"})
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         ["cell_sweep", "torus_images", "tensor_module", "cli_session"])

    def test_refuses_outside_a_checkout(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cell_sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Workloads(unittest.TestCase):
    def run_ops(self, wl):
        tally = worker.Tally()
        done, _cpu, _wall, _slowness = worker.run_round(wl, tally)
        self.assertEqual((tally.failed, tally.wrong), (0, 0), tally.messages)
        self.assertEqual(done, sum(wl.size(op) for op in wl.ops))
        return tally

    def test_inputs_follow_the_seed(self):
        for cls in workloads.WORKLOADS.values():
            first, again, other = cls(1).ops, cls(1).ops, cls(2).ops
            self.assertEqual(repr(first), repr(again))
            self.assertNotEqual(repr(first), repr(other))

    def test_cell_sweep(self):
        for seed in (1, 2):
            wl = workloads.CellSweep(seed)
            self.run_ops(tiny(wl, [0, 50, 150, -1]))

    def test_torus_images(self):
        for seed in (1, 2):
            wl = workloads.TorusImages(seed)
            self.run_ops(tiny(wl, [0, 3, -1]))  # reference word, rank 2, disjoint rank 4

    def test_tensor_module(self):
        for seed in (1, 2):
            wl = workloads.TensorModule(seed)
            self.run_ops(tiny(wl, [2, 6, -1, -4]))

    def test_cli_session(self):
        with tempfile.TemporaryDirectory() as tmp:
            wl = cli_session.CliSession(1, tmp)
            # analyze, ascii diagram, smith, module act, excluded Laurent, seeded analyze and act
            self.run_ops(tiny(wl, [0, 1, 9, 10, 12, 20, -1]))

    def test_trace_counts_repeat(self):
        counts = []
        for _ in range(2):
            wl = tiny(workloads.TorusImages(3), [0, 3])
            t = tracer.Tracer()
            t.install()
            try:
                worker.run_round(wl, worker.Tally(), t)
            finally:
                t.uninstall()
            counts.append({k: (row[tracer.CALLS], row[tracer.UNITS_DONE])
                           for k, row in t.stats.items()})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["qtorus.coeff_mul"][0], 0)
        self.assertGreater(counts[0]["wiring.enumerate_paths"][1], 0)
        metrics = worker.per_layer(t.stats, {"cli.import_s": 0.1, "cli.emit.bytes": 0,
                                             "trace.overhead_ratio": 1.0})
        self.assertEqual(list(metrics), worker.PER_LAYER)


class CheckersRejectCorruptOutputs(unittest.TestCase):
    def test_cell_sweep(self):
        wl = workloads.CellSweep(1)
        op = next(op for op in wl.ops if len(op[1]) == 6)
        inv, psi, congruence = wl.run(op)
        self.assertIsNone(wl.check(op, (inv, psi, congruence)))
        for field, delta in (("d", 1), ("n_dim", 1), ("k", 1), ("s", -1)):
            bad = copy.copy(inv)
            setattr(bad, field, getattr(inv, field) + delta)
            self.assertIsNotNone(wl.check(op, (bad, psi, congruence)), field)
        self.assertIsNotNone(wl.check(op, (inv, (True, psi[1] + [2]), congruence)))
        self.assertIsNotNone(wl.check(op, (inv, psi, dict(congruence, rank_ok=False))))

    def test_torus_images(self):
        wl = workloads.TorusImages(1)
        op = wl.ops[0]
        minors, relations, extra, report = wl.run(op)
        self.assertIsNone(wl.check(op, (minors, relations, extra, report)))
        A, B, image, oracle = minors[0]
        extra_term = QTorusElement.monomial(image.m, image.D, (1,) * image.m, (0,) * image.m)
        bad = [(A, B, image + extra_term, oracle)] + minors[1:]
        self.assertIsNotNone(wl.check(op, (bad, relations, extra, report)))
        bad_rel = [(name, name != relations[0][0]) for name, _ in relations]
        self.assertIsNotNone(wl.check(op, (minors, bad_rel, extra, report)))
        bad_extra = dict(extra, x12=extra["x12"] + extra_term)
        self.assertIsNotNone(wl.check(op, (minors, relations, bad_extra, report)))
        disjoint = wl.ops[-1]
        self.assertIsNotNone(wl.check(disjoint, (*wl.run(disjoint)[:3], None)))

    def test_tensor_module(self):
        wl = workloads.TensorModule(1)
        legal = wl.ops[2]
        excluded = wl.ops[-1]
        self.assertIsNotNone(wl.check(legal, {"ok": False, "failures": [("det_q = 1", (0, 0))]}))
        rep = wl.run(excluded)
        self.assertIsNone(wl.check(excluded, rep))
        shifted = dict(rep, failures=[(name, i + 1) for name, i in rep["failures"]])
        self.assertIsNotNone(wl.check(excluded, shifted))
        self.assertIsNotNone(wl.check(excluded, {"ok": True, "failures": []}))

    def test_cli_session(self):
        with tempfile.TemporaryDirectory() as tmp:
            wl = cli_session.CliSession(1, tmp)
            by_name = {" ".join(op.argv[:2]): op for op in wl.ops}
            smith = wl.ops[9]
            proc = wl.run(smith)
            self.assertIsNone(wl.check(smith, proc))
            out = json.loads(proc.stdout)
            out["U"][0][0] += 1
            proc.stdout = json.dumps(out)
            self.assertIsNotNone(wl.check(smith, proc))
            proc.stdout = "not json"
            self.assertIsNotNone(wl.check(smith, proc))
            proc.returncode = 1
            self.assertIsNotNone(wl.check(smith, proc))

            skew = wl.ops[-2]
            proc = wl.run(skew)
            self.assertIsNone(wl.check(skew, proc))
            out = json.loads(proc.stdout)
            out["Q"][0], out["Q"][1] = out["Q"][1], out["Q"][0]
            proc.stdout = json.dumps(out)
            self.assertIsNotNone(wl.check(skew, proc))

            table = by_name["pivots table1"]
            proc = wl.run(table)
            rows = json.loads(proc.stdout)
            rows[3]["passed"] = False
            proc.stdout = json.dumps(rows)
            self.assertIsNotNone(wl.check(table, proc))

            image = wl.ops[4]
            proc = wl.run(image)
            self.assertIsNone(wl.check(image, proc))
            out = json.loads(proc.stdout)
            out["terms"][0]["coeff"][0]["q"] += 1
            proc.stdout = json.dumps(out)
            self.assertIsNotNone(wl.check(image, proc))

            diagram = wl.ops[1]
            proc = wl.run(diagram)
            self.assertIsNone(wl.check(diagram, proc))
            lines = proc.stdout.splitlines()
            for bad in (lines[1:], [lines[0].replace("~\\_", "_/~", 1)] + lines[1:],
                        [lines[0].replace("---", "~/_", 1)] + lines[1:],
                        [line.rsplit(" ", 2)[0] + line[-2:] for line in lines]):
                proc.stdout = "\n".join(bad) + "\n"
                self.assertIsNotNone(wl.check(diagram, proc), bad)

            for act in (wl.ops[10], wl.ops[-1]):  # README x11 on e_0, seeded x22
                proc = wl.run(act)
                self.assertIsNone(wl.check(act, proc))
                out = json.loads(proc.stdout)
                for key in ("n", "num", "q"):
                    bad = copy.deepcopy(out)
                    if key == "n":
                        bad[-1]["n"][0] += 1
                    else:
                        bad[-1]["coeff"][0][key] += 1
                    proc.stdout = json.dumps(bad)
                    self.assertIsNotNone(wl.check(act, proc), key)
                proc.stdout = json.dumps([])
                self.assertIsNotNone(wl.check(act, proc))


if __name__ == "__main__":
    unittest.main()
