import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import exact_det, smith_sweep_matrix
import qck
from qck import cli, weyl, wiring


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_reference_word(capsys):
    code, out, err = run(
        capsys, "analyze", "--rank", "2", "--word", "1,2,1,-1,-2"
    )
    assert code == 0
    data = json.loads(out)
    assert (data["m"], data["s"], data["n"], data["d"], data["k"]) == (5, 2, 7, 1, 1)
    assert data["w1"] == "1,2" and data["w2"] == "1,2,1"
    assert data["psi_ok"] is True
    assert "m=5" in err


def test_analyze_usage_error(capsys):
    code, out, err = run(capsys, "analyze", "--rank", "2", "--word", "3,1")
    assert code == 2


def test_image_roundtrip(capsys):
    code, out, _ = run(
        capsys, "image", "--rank", "2", "--word", "1,2,1,-1,-2", "--expr", "x12"
    )
    assert code == 0
    A2 = weyl.type_a(2)
    assert json.loads(out) == wiring.minor_image(A2, (1, 2, 1, -1, -2), (1,), (2,)).to_json()


def test_image_minor_flag(capsys):
    code, out, _ = run(
        capsys, "image", "--rank", "2", "--word", "1,2,1,-1,-2", "--minor", "12|12"
    )
    assert code == 0
    assert len(json.loads(out)["terms"]) == 3
    assert out == (Path(__file__).parent / "golden" / "ref_word_minor1212.json").read_text()


@pytest.mark.parametrize("minor, named", [
    ("12", "expected |"),
    ("11|12", "repeated level"),
    ("12|1", "equal row and column counts"),
    ("12|1a", "unexpected character"),
    ("1|1)*x11*minor(2|2", "is not rows|cols"),
    ("", "is not rows|cols"),
])
def test_image_minor_errors_name_the_fault(capsys, minor, named):
    code, out, err = run(capsys, "image", "--rank", "2", "--word", "1,2", "--minor", minor)
    assert code == 2 and out == ""
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("expr, position", [("x1²", 2), ("minor(1²|12)", 7), ("x12^²", 4), ("x١٢", 1)])
def test_superscript_digit_is_an_unexpected_character(capsys, expr, position):
    # str.isdigit holds for '²', but int() rejects it; int() accepts the
    # Arabic-Indic '١٢', which is no list of levels either
    code, out, err = run(capsys, "image", "--rank", "2", "--word", "1,2", "--expr", expr)
    assert code == 2 and out == ""
    assert err == f"error: unexpected character {expr[position]!r} (at position {position})\n"


@pytest.mark.parametrize("argv, letter", [
    (("image", "--word", "3", "--minor", "1|1"), 3),
    (("image", "--word", "1,-3", "--expr", "x11"), -3),
    (("verify", "--suite", "relations", "--word", "3"), 3),
    (("verify", "--suite", "relations", "--word", "-3,1"), -3),
    (("verify", "--suite", "lemma", "--word", "3"), 3),
    (("diagram", "--word", "3"), 3),
])
def test_out_of_range_letter_is_named(capsys, argv, letter):
    code, out, err = run(capsys, *argv, "--rank", "2")
    assert code == 2 and out == ""
    assert err == f"error: letter {letter} out of range for rank 2\n"


@pytest.mark.parametrize("argv", [
    ("analyze", "--word", "1"),
    ("verify", "--suite", "psi"),
    ("diagram", "--word", ""),
])
@pytest.mark.parametrize("rank", ["0", "-1"])
def test_rank_below_one_is_named(capsys, argv, rank):
    code, out, err = run(capsys, *argv, "--rank", rank)
    assert code == 2 and out == ""
    assert err == f"error: --rank {rank} is not a positive integer\n"


@pytest.mark.parametrize("argv, word, letter", [
    (("analyze", "--word", "1,,2"), "1,,2", ""),
    (("image", "--word", "1,x", "--minor", "1|1"), "1,x", "x"),
])
def test_malformed_word_names_the_letter(capsys, argv, word, letter):
    code, out, err = run(capsys, *argv, "--rank", "2")
    assert code == 2 and out == ""
    assert err == f"error: word {word!r} has the letter {letter!r}, not an integer\n"


@pytest.mark.parametrize("flags, named", [
    (("--expr", "x11", "--minor", "12|12"), "not allowed with argument"),
    ((), "one of the arguments --expr --minor is required"),
])
def test_image_takes_exactly_one_of_expr_and_minor(capsys, flags, named):
    with pytest.raises(SystemExit) as exc:
        cli.main(["image", "--rank", "2", "--word", "1,2", *flags])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert named in err and "Traceback" not in err


def test_diagram_ascii_columns(capsys):
    code, out, _ = run(
        capsys, "diagram", "--rank", "3", "--word", "-2,1,-3,3,2,-1,-2,1,-1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    crossing_cols = 0
    for col in range(9):
        cells = [line[3 + 4 * col : 6 + 4 * col] for line in lines]
        if any("/" in c or "\\" in c for c in cells):
            crossing_cols += 1
    assert crossing_cols == 9


def test_diagram_svg(capsys):
    code, out, _ = run(
        capsys, "diagram", "--rank", "2", "--word", "1,2,1,-1,-2", "--format", "svg"
    )
    assert code == 0
    assert out.startswith("<svg") and out.count("<line") == 3 + 5


def test_pivots_table1_exits_zero(capsys):
    code, out, err = run(capsys, "pivots", "table1")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 10 and all(r["passed"] for r in rows)
    assert "10/10" in err


def test_pivots_check_certificate_file(tmp_path, capsys):
    cert = {
        "word": "-1,1",
        "order": [1, 2],
        "claims": [
            {"a_expr": "x11", "elem_expr": "x22"},
            {"a_expr": "x11", "elem_expr": "x22"},
        ],
    }
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "pivots", "check", "--rank", "1", "--cert", str(path))
    assert code == 0
    bad = dict(cert)
    bad["claims"] = [
        {"a_expr": "x11", "elem_expr": "x11"},
        {"a_expr": "x11", "elem_expr": "x11"},
    ]
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "pivots", "check", "--rank", "1", "--cert", str(path))
    assert code == 1


def test_pivots_check_certificate_without_claims(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"word": "-1,1", "order": [1, 2]}))
    code, out, err = run(capsys, "pivots", "check", "--rank", "1", "--cert", str(path))
    assert code == 2
    assert "'claims'" in err and "Traceback" not in err


@pytest.mark.parametrize("a_expr, elem_expr, named", [
    ("x44", "x22", "out of range"),
    ("x11", "minor(14|14)", "out of range"),
    ("x13^-1", "x22", "non-unit"),
    ("minor(12|1)", "x22", "equal row and column counts"),
])
def test_pivots_check_reports_a_bad_claim_and_exits_1(tmp_path, capsys, a_expr, elem_expr, named):
    claims = [{"a_expr": a_expr, "elem_expr": elem_expr}, {"a_expr": "x11", "elem_expr": "x22"}]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"word": "-1,1", "order": [1, 2], "claims": claims}))
    code, out, err = run(capsys, "pivots", "check", "--rank", "2", "--cert", str(path))
    assert code == 1 and err == "certificate: FAIL\n"
    first, second = json.loads(out)["claims"]
    assert not first["passed"] and named in first["error"]
    assert second["passed"]


def test_pivots_check_cross_check_failure_exits_3(monkeypatch, tmp_path, capsys):
    from qck import pivots

    def boom(*args):
        raise pivots.CrossCheckFailed("forced")

    monkeypatch.setattr(pivots, "is_pivot", boom)
    cert = pivots.TABLE1[0]["certificate"]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert.to_json()))
    code, out, err = run(capsys, "pivots", "check", "--rank", "2", "--cert", str(path))
    assert code == 3 and out == "" and "cross-check" in err


def test_pivots_auto(capsys):
    code, out, _ = run(capsys, "pivots", "auto", "--rank", "2", "--word", "-1,2")
    assert code == 0
    data = json.loads(out)
    assert data["report"]["passed"] is True
    code, _, _ = run(capsys, "pivots", "auto", "--rank", "1", "--word", "-1,1")
    assert code == 1


def test_normal_form_smith(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2 0\n0 3\n")
    code, out, _ = run(capsys, "normal-form", "--kind", "smith", "--file", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["invariant_factors"] == [1, 6]


def test_normal_form_smith_prints_small_transforms(tmp_path, capsys):
    # a valid 8 x 8 matrix whose U and V once grew past the 4,300 digits
    # json.dumps converts, which exited 2
    M = smith_sweep_matrix(8, 8, 15, 0)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(M))
    code, out, _ = run(capsys, "normal-form", "--kind", "smith", "--file", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["invariant_factors"] == [1, 1, 1, 1, 2, 2, 2, 22724391930]
    assert math.prod(data["invariant_factors"]) == abs(exact_det(M))


def test_normal_form_smith_integers_past_the_str_digit_limit(tmp_path, capsys):
    # CPython converts at most 4,300 digits between int and str by default;
    # 2^8000 * 3^5000 has 4,795 digits and the text entry 10^5000 has 5,001
    big = 2**8000 * 3**5000
    path = tmp_path / "m.json"
    path.write_text(f"[[{2**8000}, 0], [0, {3**5000}]]")
    code, out, _ = run(capsys, "normal-form", "--kind", "smith", "--file", str(path))
    assert code == 0 and json.loads(out)["invariant_factors"] == [1, big]
    path = tmp_path / "m.txt"
    path.write_text("1" + "0" * 5000 + " 0\n0 7\n")
    code, out, _ = run(capsys, "normal-form", "--kind", "smith", "--file", str(path))
    assert code == 0 and json.loads(out)["invariant_factors"] == [1, 7 * 10**5000]


def test_normal_form_skew_json_input(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("[[0, 2], [-2, 0]]")
    code, out, _ = run(capsys, "normal-form", "--kind", "skew", "--file", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["multipliers"] == [2] and data["zero_dim"] == 0


@pytest.mark.parametrize(
    "matrix, named",
    [
        ("[[0,1.5],[-1.5,0]]", "entry (0, 1) is 1.5"),
        ("[[0,true],[-1,0]]", "entry (0, 1) is True"),
        ("[1,2]", "row 0 is 1"),
        ('[[0,"a"],["a",0]]', "entry (0, 1) is 'a'"),
        ("[[0,1],[-1]]", "row 1 has 1 entries"),
    ],
)
def test_normal_form_rejects_non_integer_json_matrix(tmp_path, capsys, matrix, named):
    path = tmp_path / "m.json"
    path.write_text(matrix)
    for kind in ("smith", "skew"):
        code, out, err = run(capsys, "normal-form", "--kind", kind, "--file", str(path))
        assert code == 2 and out == ""
        assert named in err and "Traceback" not in err


@pytest.mark.parametrize(
    "matrix, kinds, named",
    [
        ("[[]]", ("skew",), "matrix is 1x0, not square"),
        ("[[0, 1, 2], [-1, 0, 3]]", ("skew",), "matrix is 2x3, not square"),
        ('{"a":1}', ("smith", "skew"), "a JSON matrix must be a list of rows, not a dict"),
        ('"x"', ("smith", "skew"), "a JSON matrix must be a list of rows, not a str"),
    ],
)
def test_normal_form_names_the_fault(tmp_path, capsys, matrix, kinds, named):
    path = tmp_path / "m.json"
    path.write_text(matrix)
    for kind in kinds:
        code, out, err = run(capsys, "normal-form", "--kind", kind, "--file", str(path))
        assert code == 2 and out == ""
        assert named in err and "Traceback" not in err


def test_module_verify_kinds(capsys):
    code, out, _ = run(
        capsys, "module", "verify", "--kind", "HighestWeight", "--truncate", "10"
    )
    assert code == 0
    code, out, _ = run(
        capsys, "module", "verify", "--kind", "Laurent", "--gamma", "-1:1",
        "--eta", "1", "--truncate", "10",
    )
    assert code == 1


def test_module_verify_tensor(capsys):
    code, out, _ = run(
        capsys, "module", "verify", "--tensor", "--rank", "1", "--word", "-1,1",
        "--truncate", "2",
    )
    assert code == 0


@pytest.mark.parametrize("argv, flag, mode", [
    (("--tensor", "--word", "-1,1", "--gamma", "5"), "--gamma", "with"),
    (("--tensor", "--word", "-1,1", "--eta", "7"), "--eta", "with"),
    (("--tensor", "--gamma", ""), "--gamma", "with"),
    (("--kind", "Mminus", "--word", "1,2"), "--word", "without"),
    (("--kind", "Mminus", "--params", "g1=3"), "--params", "without"),
    (("--word", ""), "--word", "without"),
])
def test_module_verify_rejects_a_flag_its_mode_ignores(capsys, argv, flag, mode):
    code, out, err = run(capsys, "module", "verify", *argv)
    assert (code, out, err) == (2, "", f"error: {flag} is not used {mode} --tensor\n")


def test_module_act(capsys):
    vector = json.dumps([{"n": [0, 0], "coeff": [{"q": 0, "gamma": [], "num": 1, "den": 1}]}])
    code, out, _ = run(
        capsys, "module", "act", "--rank", "1", "--word", "-1,1", "--expr", "x11",
        "--vector", vector,
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1 and data[0]["n"] == [-1, -1]


def test_module_act_repeated_coefficient_terms_add_up(capsys):
    # repeated terms in one coefficient add up, as repeated items do
    t = {"q": 0, "gamma": [], "num": 1, "den": 1}
    cases = [
        ([{"n": [0, 0], "coeff": [t, t]}], [{"n": [-1, -1], "coeff": [dict(t, num=2)]}]),
        ([{"n": [0, 0], "coeff": [t, dict(t, num=-1)]}], []),
        ([{"n": [0, 0], "coeff": [t]}] * 2, [{"n": [-1, -1], "coeff": [dict(t, num=2)]}]),
    ]
    for vector, expected in cases:
        code, out, _ = run(
            capsys, "module", "act", "--rank", "1", "--word", "-1,1", "--expr", "x11",
            "--vector", json.dumps(vector),
        )
        assert code == 0 and json.loads(out) == expected, vector


def test_module_act_vector_item_without_coeff(capsys):
    code, out, err = run(
        capsys, "module", "act", "--rank", "1", "--word", "-1,1", "--expr", "x11",
        "--vector", '[{"n": [0, 0]}]',
    )
    assert code == 2
    assert "--vector item lacks field 'coeff'" in err and out == ""


def test_module_act_with_specialized_params(capsys):
    # y-type action picks up the specialized gamma_1 = -1/2 q^2
    vector = json.dumps([{"n": [1, 0], "coeff": [{"q": 0, "gamma": [], "num": 1, "den": 1}]}])
    code, out, _ = run(
        capsys, "module", "act", "--rank", "1", "--word", "-1,1", "--expr", "x21",
        "--vector", vector, "--params", "g1=-1/2:2",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1
    (term,) = data
    assert term["coeff"] == [{"q": 3, "gamma": [], "num": -1, "den": 2}]


def test_internal_cross_check_exit_code(monkeypatch, capsys):
    from qck import strings

    def boom(datum, word):
        raise strings.CrossCheckFailed("forced")

    monkeypatch.setattr(strings, "invariants", boom)
    code = cli.main(["analyze", "--rank", "2", "--word", "1,2,1,-1,-2"])
    captured = capsys.readouterr()
    assert code == 3
    assert "cross-check" in captured.err


@pytest.mark.parametrize(
    "argv,target,fake",
    [
        # a wrong Lambda inverse fails the Lambda * Lambda^-1 = I check
        (["analyze", "--rank", "2", "--word", "1,2,1,-1,-2"], "invert_unitriangular",
         lambda L: [[0] * len(L) for _ in L]),
        # the H = R^T N R check of the skew normal form sees a mismatch
        (["normal-form", "--kind", "skew", "--file", "{matrix}"], "_combine",
         lambda coeffs, rows, width: [1] * width),
        # a wrong U fails the U M V = D check of the Smith form (U = diag(1, -1) is right)
        (["normal-form", "--kind", "smith", "--file", "{matrix}"], "_smith",
         lambda M, track_u, track_v: ([[1, 1], [0, -1]], [[2, 0], [0, 2]], [[0, 1], [1, 0]])),
    ],
)
def test_failed_self_verification_exits_3(monkeypatch, tmp_path, capsys, argv, target, fake):
    from qck import intlinalg

    path = tmp_path / "m.json"
    path.write_text("[[0, 2], [-2, 0]]")
    monkeypatch.setattr(intlinalg, target, fake)
    code, out, err = run(capsys, *[a.format(matrix=path) for a in argv])
    assert code == 3
    assert "cross-check" in err and out == ""


def test_verify_lemma_checks_only_the_given_word(capsys):
    code, out, err = run(capsys, "verify", "--suite", "lemma", "--rank", "2", "--word", "1,2")
    assert code == 0
    assert json.loads(out) == [{"word": "1,2", "ok": True}]
    assert "1/1 pass" in err
    code, out, err = run(capsys, "verify", "--suite", "lemma", "--rank", "2", "--word", "1,-2")
    assert code == 2 and out == ""


def test_verify_suites(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemma", "--rank", "2", "--max-len", "3")
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "--suite", "congruence", "--rank", "1", "--max-len", "4"
    )
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "--suite", "psi", "--rank", "2", "--word", "1,2,1,-1,-2"
    )
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "--suite", "relations", "--rank", "2", "--max-len", "2"
    )
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("module", "verify", "--kind", "Mminus", "--truncate", "-3"),
    ("module", "verify", "--tensor", "--word", "-1,1", "--truncate", "-2"),
    ("verify", "--suite", "relations", "--rank", "2", "--max-len", "-1"),
])
def test_negative_bound_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "is not a nonnegative integer" in err


def test_usage_exit_code():
    with pytest.raises(SystemExit) as err:
        cli.main(["analyze", "--rank", "2"])  # missing --word
    assert err.value.code == 2


@pytest.mark.parametrize(
    "expr,golden",
    [
        ("x12", "ref_word_x12.json"),
        ("minor(12|12)", "ref_word_minor1212.json"),
        ("x21^2 * x33 * minor(23|23)", "ref_word_pivot_unit.json"),
    ],
)
def test_image_golden_files(capsys, expr, golden):
    import pathlib

    path = pathlib.Path(__file__).parent / "golden" / golden
    code, out, _ = run(
        capsys, "image", "--rank", "2", "--word", "1,2,1,-1,-2", "--expr", expr
    )
    assert code == 0
    assert out == path.read_text()  # byte-identical: canonical term order


def test_module_verify_gamma_parameter(capsys):
    code, out, err = run(
        capsys, "module", "verify", "--kind", "Laurent", "--gamma", "1/2:1", "--truncate", "3",
    )
    assert code == 0
    assert json.loads(out) == {"ok": True, "failures": [], "range": [-3, 3]}
    assert err == "Laurent relations: PASS\n"
    assert cli._param("1/2:1", "--gamma") == {(1, ()): Fraction(1, 2)}
    assert cli._param("-3", "--gamma") == {(0, ()): -3}


@pytest.mark.parametrize("value", ["x", "1:x", "1/0"])
def test_module_verify_malformed_gamma_exits_2(capsys, value):
    code, out, err = run(capsys, "module", "verify", "--kind", "Laurent", "--gamma", value)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


TENSOR_VERIFY = ("module", "verify", "--tensor", "--rank", "1", "--word", "-1,1", "--truncate", "1")


@pytest.mark.parametrize("argv, message", [
    (TENSOR_VERIFY + ("--params", "gx=1"), "--params piece 'gx=1' is not gk=rational:q-exponent"),
    (TENSOR_VERIFY + ("--params", "g1=abc"), "--params g1 value 'abc' is not rational:q-exponent"),
    (TENSOR_VERIFY + ("--params", "g1"), "--params piece 'g1' is not gk=rational:q-exponent"),
    (TENSOR_VERIFY + ("--params", "g1=1:x"), "--params g1 value '1:x' is not rational:q-exponent"),
    (TENSOR_VERIFY + ("--params", "g1=1,g1=2"), "--params sets g1 twice"),
    (TENSOR_VERIFY + ("--params", "g3=1"), "--params g3 is out of range: the word has 2 letters"),
    (TENSOR_VERIFY + ("--params", "g2=1/0"), "--params g2 value '1/0' has denominator 0"),
    (("module", "verify", "--kind", "Laurent", "--gamma", "1/0"),
     "--gamma value '1/0' has denominator 0"),
    (("module", "verify", "--kind", "Laurent", "--gamma", "abc"),
     "--gamma value 'abc' is not rational:q-exponent"),
    (("module", "verify", "--kind", "Laurent", "--gamma", "1:x"),
     "--gamma value '1:x' is not rational:q-exponent"),
    (("module", "verify", "--kind", "Laurent", "--eta", "2:1.5"),
     "--eta value '2:1.5' is not rational:q-exponent"),
])
def test_malformed_module_parameter_names_the_flag(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("params, golden", [
    (None, "module_act_minor1212.json"),
    ("g1=2:1,g3=-1/2,g5=3:-2", "module_act_minor1212_params.json"),
])
def test_module_act_golden_files(capsys, params, golden):
    # three items, two with the same n, formal gammas on the reference word
    vector = ('[{"n":[0,0,0,0,0],"coeff":[{"q":0,"gamma":[],"num":1,"den":1}]},'
              '{"n":[1,-1,0,2,0],"coeff":[{"q":1,"gamma":[1,0,0,0,-1],"num":-2,"den":3}]},'
              '{"n":[0,0,0,0,0],"coeff":[{"q":-2,"gamma":[0,1,0,0,0],"num":5,"den":1}]}]')
    argv = ["module", "act", "--rank", "2", "--word", "1,2,1,-1,-2", "--expr", "minor(12|12)",
            "--vector", vector] + (["--params", params] if params else [])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "action result with 6 basis term(s)\n")
    assert out == (Path(__file__).parent / "golden" / golden).read_text()


def test_python_m_qck_cli_runs_without_runpy_warning():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "qck.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and "usage: qck" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_module_act_zero_denominator_param_exits_2(capsys):
    code, out, err = run(
        capsys, "module", "act", "--rank", "1", "--word", "-1,1", "--expr", "x11",
        "--vector", '[{"n": [0, 0], "coeff": []}]', "--params", "g1=1/0",
    )
    assert code == 2 and out == ""
    assert "denominator 0" in err


MODULE_ACT = ("module", "act", "--rank", "1", "--word", "-1,1", "--expr", "x11")
ONE = '[{"q":0,"gamma":[],"num":1,"den":1}]'


@pytest.mark.parametrize("vector, named", [
    ('[{"n":5,"coeff":[]}]', "'n'"),
    ('{"n":[0,0]}', "--vector"),
    ('[5]', "--vector item"),
    ('[{"n":[0,0],"coeff":[{"q":0}]}]', "'gamma'"),
    ('[{"n":[0,0],"coeff":[{"q":0,"gamma":[],"num":1,"den":0}]}]', "'den'"),
    ('[{"n":[0,0],"coeff":[{"q":0,"gamma":[],"num":"1","den":1}]}]', "'num'"),
    ('[{"n":[0,0],"coeff":{"q":0}}]', "'coeff'"),
])
def test_module_act_malformed_vector_exits_2(capsys, vector, named):
    code, out, err = run(capsys, *MODULE_ACT, "--vector", vector)
    assert code == 2 and out == ""
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("n", ["[0]", "[0,0,0]"])
def test_module_act_index_of_wrong_length_exits_2(capsys, n):
    code, out, err = run(capsys, *MODULE_ACT, "--vector", f'[{{"n":{n},"coeff":{ONE}}}]')
    assert code == 2 and out == ""
    assert "has length" in err


def test_module_act_adds_items_with_equal_index(capsys):
    two = f'{{"n":[0,0],"coeff":{ONE}}}'
    code, out, _ = run(capsys, *MODULE_ACT, "--vector", f"[{two},{two}]")
    assert code == 0
    assert json.loads(out) == [{"n": [-1, -1], "coeff": [{"q": 0, "gamma": [], "num": 2, "den": 1}]}]


@pytest.mark.parametrize("cert, named", [
    ({"word": 5, "order": [1, 2], "claims": []}, "'word'"),
    ({"word": "-1,1", "order": 5, "claims": []}, "'order'"),
    ({"word": "-1,1", "order": [1, "2"], "claims": []}, "'order'"),
    ({"word": "-1,1", "order": [1, 2], "claims": [5]}, "claim"),
    ({"word": "-1,1", "order": [1, 2], "claims": [{"a_expr": 1, "elem_expr": "x22"}]}, "'a_expr'"),
    ([1, 2], "certificate"),
])
def test_pivots_check_malformed_certificate_exits_2(tmp_path, capsys, cert, named):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, err = run(capsys, "pivots", "check", "--rank", "1", "--cert", str(path))
    assert code == 2 and out == ""
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("module", "verify", "--kind", "HighestWeight", "--eta", "0"),
    ("module", "verify", "--kind", "Laurent", "--gamma", "0"),
    ("module", "verify", "--kind", "LowestWeight", "--gamma", "0:3"),
    ("module", "verify", "--tensor", "--rank", "1", "--word", "-1,1", "--params", "g1=0"),
    MODULE_ACT + ("--vector", "[]", "--params", "g2=0:1"),
])
def test_zero_module_parameter_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "nonzero rational times a power of q" in err


@pytest.mark.parametrize("argv", [
    ("module", "verify", "--kind", "Bogus"),
    ("module", "verify", "--tensor", "--word", "-1,1", "--kind", "Bogus"),  # --kind unused, still checked
])
def test_module_verify_unknown_kind_exits_2_and_names_the_kinds(capsys, argv):
    from qck import slq2_tensor

    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "'Bogus'" in err and "Traceback" not in err
    assert all(kind in err for kind in slq2_tensor.KINDS)


def test_verify_congruence_cross_check_failure_exits_3(monkeypatch, capsys):
    from qck import appendix_congruence

    def boom(datum, word):
        raise appendix_congruence.CrossCheckFailed("forced")

    monkeypatch.setattr(appendix_congruence, "congruence_check", boom)
    code, out, err = run(capsys, "verify", "--suite", "congruence", "--rank", "1", "--max-len", "2")
    assert code == 3 and out == "" and "cross-check" in err


def test_other_runtime_error_is_not_exit_3(monkeypatch):
    def boom(n, word):
        raise RuntimeError("not a cross-check")

    monkeypatch.setattr(wiring, "build_diagram", boom)
    with pytest.raises(RuntimeError, match="not a cross-check"):
        cli.main(["diagram", "--rank", "2", "--word", "1,2"])


FOOTPRINT = """
import json, sys
from qck import cli
cli.main(json.loads(sys.argv[1]))
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
"""
QCK_MODULES = {f"qck.{name}" for name in qck.__all__} - {"qck.cli"}
NUMERIC = {"qck.intlinalg", "qck.strings", "qck.appendix_congruence"}
TORUS = {"qck.wiring", "qck.qtorus", "qck.slq2_tensor", "qck.pivots", "fractions"}


@pytest.mark.parametrize("argv, not_loaded", [
    (["normal-form", "--kind", "skew", "--file", "{matrix}"],
     QCK_MODULES - {"qck.intlinalg"} | {"fractions"}),
    (["diagram", "--rank", "2", "--word", "1,2"], NUMERIC | {"qck.pivots", "qck.slq2_tensor"}),
    (["image", "--rank", "2", "--word", "1,2", "--expr", "x12"],
     NUMERIC | {"qck.pivots", "qck.slq2_tensor"}),
    (["analyze", "--rank", "2", "--word", "1,2,1,-1,-2"], TORUS | {"qck.appendix_congruence"}),
    (["pivots", "table1"], {"qck.strings", "qck.appendix_congruence", "qck.slq2_tensor"}),
    (["module", "verify", "--kind", "Laurent", "--truncate", "3"], NUMERIC | {"qck.pivots"}),
    (["verify", "--suite", "relations", "--rank", "1"], NUMERIC | {"qck.pivots", "qck.slq2_tensor"}),
    (["verify", "--suite", "psi", "--rank", "1"], TORUS | {"qck.appendix_congruence"}),
    (["verify", "--suite", "congruence", "--rank", "1"], TORUS),
    (["verify", "--suite", "lemma", "--rank", "2"], TORUS),
    (["normal-form", "--kind", "smith", "--file", "{matrix}"],
     QCK_MODULES - {"qck.intlinalg"} | {"fractions"}),
])
def test_each_subcommand_loads_only_its_modules(tmp_path, argv, not_loaded):
    path = tmp_path / "m.json"
    path.write_text("[[0, 2], [-2, 0]]")
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [a.format(matrix=path) for a in argv]
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, json.dumps(argv)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert "qck.cli" in loaded and not loaded & not_loaded
    assert not loaded & {"dataclasses", "inspect"}  # no record is a dataclass
