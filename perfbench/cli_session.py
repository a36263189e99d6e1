"""The `cli_session` workload: one `python -m qck.cli` process per operation.

One client runs the commands one at a time (a closed loop). The commands are
the README examples plus a few heavier reference inputs; the seed makes the
Smith and skew matrices, one rank-3 word for `qck analyze` and the vector for
one `qck module act`. Input files
are written into a work directory during set-up. This module does not import
qck: the work happens in the child processes.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
REF = "1,2,1,-1,-2"
W0_W0 = "-1,-2,-1,-3,-2,-1,1,2,1,3,2,1"
README_CERT = {
    "word": "-1,1",
    "order": [1, 2],
    "claims": [{"a_expr": "x11", "elem_expr": "x22"}, {"a_expr": "x11", "elem_expr": "x22"}],
}
README_VECTOR = {(0, 0): {(0, (0, 0)): Fraction(1)}}
DIAGRAM_WORD = (-2, 1, -3, 3, 2, -1, -2, 1, -1)
README_SKEW = [[0, 2], [-2, 0]]


def _all_ok(rows, expected_count):
    if len(rows) != expected_count:
        return f"{len(rows)} results, expected {expected_count}"
    bad = [row["word"] for row in rows if not row["ok"]]
    return f"failing words {bad[:3]}" if bad else None


def _image(expected):
    def check(out):
        got = checks.terms_from_json(out)
        return None if got == expected else "image differs from the expected value"
    return check


def _text(marker):
    return lambda text: None if marker in text else f"output lacks {marker!r}"


def _act(expr, vector):
    """`module act` on word -1,1, checked against the benchmark's own action."""
    expected = checks.tensor_action(checks.RANK1_DOUBLE_IMAGES[expr], vector, (1, 1))

    def check(out):
        got = checks.vector_from_json(out, 2)
        return None if got == expected else f"{expr} acts as {got}, expected {expected}"
    argv = ["module", "act", "--rank", "1", "--word", ",".join(map(str, checks.RANK1_DOUBLE_WORD)),
            "--expr", expr,
            "--vector", json.dumps(checks.vector_to_json(vector), separators=(",", ":"))]
    return Command(argv, check)


@dataclass
class Command:
    argv: list
    check: Callable  # parsed output (text when not json_out) -> None or a reason
    stdin: str = None
    exit_code: int = 0
    json_out: bool = True


class CliSession:
    def __init__(self, seed, workdir):
        rng = random.Random(f"cli_session:{seed}")
        self.workdir = Path(workdir)
        self.env = dict(os.environ)
        src = str(HERE.parent / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.trace_stats = {}  # filled by traced runs: trace key -> [calls, total, self, units]
        self.emit_bytes = 0
        self.traced = False
        self._child = 0

        smith = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
        skew = [[0] * 6 for _ in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                skew[i][j] = rng.randint(-6, 6)
                skew[j][i] = -skew[i][j]
        word = checks.random_double_word(rng, 3, 6)
        vector = {
            n: {(rng.randint(-2, 2), (0, 0)): Fraction(rng.choice((-5, -3, 1, 2, 7)), rng.choice((1, 2, 3)))}
            for n in rng.sample(list(itertools.product(range(-3, 4), repeat=2)), 2)
        }
        cert = self._write("cert.json", json.dumps(README_CERT))
        smith_file = self._write("matrix.txt", "\n".join(" ".join(map(str, r)) for r in smith))
        skew_file = self._write("skew.json", json.dumps(skew))

        excluded = checks.laurent_excluded_index(0)  # --gamma -1:1 --eta 1: gamma eta = -q^1
        self.ops = [
            Command(["analyze", "--rank", "2", "--word", REF],
                    lambda out: checks.check_analysis(2, checks.REF_WORD, out)),
            Command(["diagram", "--rank", "3", "--word", ",".join(map(str, DIAGRAM_WORD))],
                    lambda text: checks.check_ascii_diagram(3, DIAGRAM_WORD, text), json_out=False),
            Command(["diagram", "--rank", "2", "--word", REF, "--format", "svg"],
                    _text("</svg>"), json_out=False),
            Command(["image", "--rank", "2", "--word", REF, "--expr", "x21^2 * x33 * minor(23|23)"],
                    _image(checks.REF_IMAGES["x21^2 * x33 * minor(23|23)"])),
            Command(["image", "--rank", "2", "--word", REF, "--minor", "12|12"],
                    _image(checks.REF_IMAGES["minor(12|12)"])),
            Command(["pivots", "table1"],
                    lambda rows: None if len(rows) == 10 and all(r["passed"] for r in rows)
                    else "table1 does not pass 10 of 10"),
            Command(["pivots", "check", "--rank", "2", "--cert", cert],
                    lambda rep: None if rep["passed"] else "README certificate fails"),
            Command(["pivots", "auto", "--rank", "3", "--word", "-1,2,-3"],
                    lambda rep: None if rep["certificate"] and rep["report"]["passed"]
                    else "no passing automatic certificate"),
            Command(["normal-form", "--kind", "skew"], lambda out: checks.check_skew(README_SKEW, out),
                    stdin="0 2\n-2 0\n"),
            Command(["normal-form", "--kind", "smith", "--file", smith_file],
                    lambda out: checks.check_smith(smith, out)),
            _act("x11", README_VECTOR),
            Command(["module", "verify", "--kind", "Laurent", "--truncate", "20"],
                    checks.check_relation_report),
            Command(["module", "verify", "--kind", "Laurent", "--gamma", "-1:1", "--eta", "1",
                     "--truncate", "20"],
                    lambda rep: checks.check_relation_report(rep, excluded), exit_code=1),
            Command(["module", "verify", "--tensor", "--rank", "2", "--word", "-1,2", "--truncate", "4"],
                    checks.check_relation_report),
            Command(["verify", "--suite", "congruence", "--rank", "2", "--max-len", "4"],
                    lambda rows: _all_ok(rows, checks.count_words(2, 4, signed=True))),
            Command(["verify", "--suite", "lemma", "--rank", "3", "--max-len", "6"],
                    lambda rows: _all_ok(rows, checks.count_words(3, 6, signed=False))),
            Command(["verify", "--suite", "psi", "--rank", "2", "--word", REF],
                    lambda rows: _all_ok(rows, 1)
                    or (None if all(f == 1 for f in rows[0]["factors"]) else "Psi factors")),
            # heavier reference inputs
            Command(["image", "--rank", "3", "--word", W0_W0, "--minor", "1234|1234"],
                    _image(checks.one_terms(12))),
            Command(["verify", "--suite", "congruence", "--rank", "3", "--max-len", "4"],
                    lambda rows: _all_ok(rows, checks.count_words(3, 4, signed=True))),
            Command(["module", "verify", "--tensor", "--rank", "2", "--word", "-1,2,1", "--truncate", "3"],
                    checks.check_relation_report),
            # seeded inputs
            Command(["analyze", "--rank", "3", "--word", ",".join(map(str, word))],
                    lambda out: checks.check_analysis(3, word, out)),
            Command(["normal-form", "--kind", "skew", "--file", skew_file],
                    lambda out: checks.check_skew(skew, out)),
            _act("x22", vector),
        ]

    def _write(self, name, text):
        path = self.workdir / name
        path.write_text(text + "\n")
        return str(path)

    def warm_up(self):
        self.run(self.ops[0])

    def size(self, op):
        return 1

    def run(self, op):
        if self.traced:
            self._child += 1
            stats_file = self.workdir / f"trace-{self._child}.json"
            argv = [sys.executable, str(HERE / "cli_child.py"), str(stats_file)] + op.argv
        else:
            argv = [sys.executable, "-m", "qck.cli"] + op.argv
        proc = subprocess.run(argv, input=op.stdin, capture_output=True, text=True,
                              env=self.env, cwd=self.workdir)
        if self.traced:
            for key, row in json.loads(stats_file.read_text()).items():
                total = self.trace_stats.setdefault(key, [0, 0.0, 0.0, 0])
                for i, value in enumerate(row):
                    total[i] += value
            stats_file.unlink()
            self.emit_bytes += len(proc.stdout.encode())
        return proc

    def check(self, op, proc):
        if proc.returncode != op.exit_code:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return f"exit {proc.returncode}, expected {op.exit_code}: {tail[0]}"
        if not op.json_out:
            return op.check(proc.stdout)
        try:
            out = json.loads(proc.stdout)
        except ValueError:
            return "output is not JSON"
        return op.check(out)
