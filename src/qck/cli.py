"""Command-line front end.

Machine-readable JSON goes to stdout, a one-line human summary to stderr.
Exit codes: 0 all checks pass, 1 check failures, 2 usage errors, 3 internal
cross-check failures.  Each handler imports only the qck modules it uses.
"""

from __future__ import annotations

import argparse
import json
import sys

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _datum(args):
    from . import weyl
    if args.rank < 1:
        raise ValueError(f"--rank {args.rank} is not a positive integer")
    return weyl.type_a(args.rank)


def _word(args):
    from . import weyl
    return weyl.parse_word(args.word)


def _emit(payload, summary):
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    print(summary, file=sys.stderr)


def cmd_analyze(args):
    from . import strings, weyl
    datum = _datum(args)
    word = _word(args)
    w1, w2, supp = weyl.split_double_word(datum, word)
    inv = strings.invariants(datum, word)
    psi_ok, psi_factors = strings.psi_check(datum, word)
    payload = {
        "word": weyl.format_word(word),
        "w1": weyl.format_word(w1),
        "w2": weyl.format_word(w2),
        "supp": sorted(supp),
        "m": inv.m,
        "s": inv.s,
        "n": inv.n_dim,
        "d": inv.d,
        "k": inv.k,
        "rank_H": inv.rank_H,
        "multipliers": inv.multipliers,
        "psi_ok": psi_ok,
        "psi_factors": psi_factors,
    }
    _emit(payload, f"analyze {weyl.format_word(word) or '(empty)'}: "
                   f"m={inv.m} s={inv.s} n={inv.n_dim} d={inv.d} k={inv.k}")
    return EXIT_OK if psi_ok else EXIT_CHECK_FAILED


def cmd_diagram(args):
    from . import wiring
    datum = _datum(args)
    word = _word(args)
    diagram = wiring.build_diagram(datum.n, word)
    summary = f"diagram with {len(diagram.word)} columns"
    if args.format == "json":
        columns = [{"level": c, "sign": s} for c, s in diagram.columns]
        _emit({"levels": diagram.levels, "columns": columns}, summary)
    else:
        render = wiring.render_svg if args.format == "svg" else wiring.render_ascii
        sys.stdout.write(render(diagram) + "\n")
        print(summary, file=sys.stderr)
    return EXIT_OK


def cmd_image(args):
    from . import wiring
    datum = _datum(args)
    word = _word(args)
    if args.minor == "" or ")" in (args.minor or ""):  # ")" would close minor( early
        raise ValueError(f"--minor {args.minor!r} is not rows|cols, like 12|12")
    label = args.expr if args.minor is None else f"minor({args.minor})"
    elem = wiring.expression_image(datum, word, label)
    _emit(elem.to_json(), f"{label}: {len(elem.terms)} term(s)")
    return EXIT_OK


def cmd_pivots(args):
    from . import pivots
    datum = _datum(args)
    if args.action == "table1":
        suite = pivots.table1_suite(datum)
        payload = [{"cell": row["cell"], **row["report"].to_json()} for row in suite]
        npass = sum(1 for row in suite if row["report"].passed)
        _emit(payload, f"table1: {npass}/{len(suite)} rows pass")
        return EXIT_OK if npass == len(suite) else EXIT_CHECK_FAILED
    if args.action == "check":
        with open(args.cert) as fh:
            cert = pivots.PivotCertificate.from_json(json.load(fh))
        report = pivots.check_certificate(datum, cert)
        _emit(report.to_json(), f"certificate: {'PASS' if report.passed else 'FAIL'}")
        return EXIT_OK if report.passed else EXIT_CHECK_FAILED
    # auto
    word = _word(args)
    cert = pivots.auto_certificate_disjoint(datum, word)
    if cert is None:
        _emit({"word": args.word, "certificate": None},
              "supports intersect; no automatic certificate")
        return EXIT_CHECK_FAILED
    report = pivots.check_certificate(datum, cert)
    payload = {"certificate": cert.to_json(), "report": report.to_json()}
    _emit(payload, f"auto certificate: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_normal_form(args):
    from . import intlinalg
    if args.file:
        with open(args.file) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    text = text.strip()
    if text.startswith(("[", "{", '"')):
        M = _int_matrix(json.loads(text))
    else:
        M = intlinalg.parse_matrix_text(text)
    if args.kind == "smith":
        U, Dm, V = intlinalg.smith_normal_form(M)
        payload = {
            "invariant_factors": [Dm[i][i] for i in range(min(len(Dm), len(Dm[0]) if Dm else 0))],
            "U": U,
            "D": Dm,
            "V": V,
        }
        _emit(payload, f"smith: factors {payload['invariant_factors']}")
    else:
        nf = intlinalg.skew_normal_form(M)
        payload = {"multipliers": nf.multipliers, "zero_dim": nf.zero_dim, "Q": nf.Q}
        _emit(payload, f"skew: multipliers {nf.multipliers}, radical {nf.zero_dim}")
    return EXIT_OK


def _int_matrix(data):
    """A JSON matrix: a list of equal-length lists of ints (bools excluded)."""
    if not isinstance(data, list):
        raise ValueError(f"a JSON matrix must be a list of rows, not a {type(data).__name__}")
    for r, row in enumerate(data):
        if not isinstance(row, list):
            raise ValueError(f"matrix row {r} is {row!r}, not a list")
        if len(row) != len(data[0]):
            raise ValueError(f"matrix row {r} has {len(row)} entries, row 0 has {len(data[0])}")
        for c, x in enumerate(row):
            if type(x) is not int:
                raise ValueError(f"matrix entry ({r}, {c}) is {x!r}, not an integer")
    return data


def _parse_params(text, m):
    """--params 'g1=-1:1,g3=2:0' meaning gamma_k = rational:q-exponent."""
    params = [None] * m
    if not text:
        return params
    for piece in text.split(","):
        name, eq, value = piece.partition("=")
        name = name.strip()
        if not (eq and name[:1] == "g" and name[1:].isdecimal()):
            raise ValueError(f"--params piece {piece!r} is not gk=rational:q-exponent")
        k = int(name[1:]) - 1
        if not 0 <= k < m:
            raise ValueError(f"--params {name} is out of range: the word has {m} letters")
        if params[k] is not None:
            raise ValueError(f"--params sets {name} twice")
        params[k] = _param(value, "--params " + name)
    return params


def _param(value, flag):
    """'rational:q-exponent' as the coefficient c q^e; flag names the option
    in error messages."""
    from fractions import Fraction
    num, _, qexp = value.partition(":")
    try:
        c, e = Fraction(num), int(qexp or 0)
    except ZeroDivisionError:
        raise ValueError(f"{flag} value {value!r} has denominator 0") from None
    except ValueError:
        raise ValueError(f"{flag} value {value!r} is not rational:q-exponent") from None
    return {(e, ()): c if c.denominator != 1 else c.numerator}


def cmd_module(args):
    from . import slq2_tensor, weyl, wiring
    from .qtorus import coeff_to_json, group_coefficients
    datum = _datum(args)
    if args.action == "act":
        word = _word(args)
        mod = slq2_tensor.TensorModule(
            datum, word, params=_parse_params(args.params, len(word))
        )
        elem = wiring.expression_image(datum, word, args.expr)
        out = mod.element_action(elem, _vector(mod, json.loads(args.vector)))
        out = group_coefficients(out)
        payload = [{"n": list(n), "coeff": coeff_to_json(c)} for (n,), c in sorted(out.items())]
        _emit(payload, f"action result with {len(out)} basis term(s)")
        return EXIT_OK
    # verify; --tensor does not use --kind, but an unknown kind is still an error
    slq2_tensor.TypicalModuleSpec(args.kind)
    for flag in ("--gamma", "--eta") if args.tensor else ("--word", "--params"):
        if getattr(args, flag[2:]) is not None:
            raise ValueError(f"{flag} is not used {'with' if args.tensor else 'without'} --tensor")
    if args.tensor:
        text = args.word or ""
        word = weyl.parse_word(text)
        rep = slq2_tensor.verify_tensor_relations(
            datum, word, args.truncate, params=_parse_params(args.params, len(word))
        )
        _emit(rep, f"tensor relations on {text}: "
                   f"{'PASS' if rep['ok'] else 'FAIL'} ({rep['checked']} vectors)")
        return EXIT_OK if rep["ok"] else EXIT_CHECK_FAILED
    gamma, eta = (_param(v, flag) if v else None
                  for v, flag in ((args.gamma, "--gamma"), (args.eta, "--eta")))
    spec = slq2_tensor.TypicalModuleSpec(args.kind, gamma, eta)
    rep = slq2_tensor.verify_typical_relations(spec, args.truncate)
    _emit(rep, f"{args.kind} relations: {'PASS' if rep['ok'] else 'FAIL'}")
    return EXIT_OK if rep["ok"] else EXIT_CHECK_FAILED


def _nonnegative(text):
    """argparse type of the bounds --truncate and --max-len."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return value


def _vector(mod, data):
    """The module vector of --vector, a list of {"n": [...], "coeff": [...]}
    items; items with equal n add up."""
    from .qtorus import add_scalars, coeff_from_json, json_fields
    if not isinstance(data, list):
        raise ValueError(f"--vector is {data!r}, not a list of items")
    vec = {}
    for item in data:
        n, coeff = json_fields(item, "--vector item", n="ints", coeff=list)
        add_scalars(vec, mod.basis_vector(n, coeff_from_json(coeff)).items())
    return vec


def cmd_verify(args):
    from . import weyl
    if args.suite in ("congruence", "lemma"):
        from . import appendix_congruence
    elif args.suite == "relations":
        from . import wiring
    else:
        from . import strings
    datum = _datum(args)
    if args.suite == "lemma":
        if args.word is None:
            words = [rw for cls in weyl.all_reduced_words(datum, args.max_len) for rw in cls]
        else:
            words = [weyl.parse_word(args.word)]
            if any(e < 0 for e in words[0]):
                raise ValueError("the lemma suite takes an unsigned reduced word")
    elif args.word is not None:
        words = [weyl.parse_word(args.word)]
    else:
        words = weyl.all_double_words(datum, args.max_len)
    results = []
    for word in words:
        entry = {"word": weyl.format_word(word)}
        if args.suite == "congruence":
            entry["ok"] = appendix_congruence.congruence_check(datum, word)["ok"]
        elif args.suite == "relations":
            entry["ok"] = all(flag for _n, flag in wiring.verify_relations(datum, word))
        elif args.suite == "psi":
            entry["ok"], entry["factors"] = strings.psi_check(datum, word)
        elif args.suite == "invariants":
            strings.invariants(datum, word)  # raises CrossCheckFailed on bugs
            entry["ok"] = True
        else:  # lemma
            entry["ok"] = appendix_congruence.verify_lemma(datum, word)["ok"]
        results.append(entry)
    npass = sum(1 for r in results if r["ok"])
    _emit(results, f"{args.suite}: {npass}/{len(results)} pass")
    return EXIT_OK if npass == len(results) else EXIT_CHECK_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qck",
        description="quantized coordinate-ring computations via wiring diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural invariants of a double word")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("diagram", help="render the wiring diagram")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--format", choices=("ascii", "svg", "json"), default="ascii")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("image", help="image of an expression in the tensor torus")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--word", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--expr")
    g.add_argument("--minor", help="rows|cols, e.g. 12|12")
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("pivots", help="pivot-element certificates")
    psub = p.add_subparsers(dest="action", required=True)
    p1 = psub.add_parser("check", help="check a certificate file")
    p1.add_argument("--rank", type=int, required=True)
    p1.add_argument("--cert", required=True)
    p1.set_defaults(func=cmd_pivots)
    p2 = psub.add_parser("table1", help="verify the built-in rank-2 table")
    p2.add_argument("--rank", type=int, default=2)
    p2.set_defaults(func=cmd_pivots)
    p3 = psub.add_parser("auto", help="disjoint-support automatic certificate")
    p3.add_argument("--rank", type=int, required=True)
    p3.add_argument("--word", required=True)
    p3.set_defaults(func=cmd_pivots)

    p = sub.add_parser("normal-form", help="integer matrix normal forms")
    p.add_argument("--kind", choices=("smith", "skew"), required=True)
    p.add_argument("--file", help="matrix file (text rows or JSON); stdin otherwise")
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("module", help="module actions and relation suites")
    msub = p.add_subparsers(dest="action", required=True)
    m1 = msub.add_parser("act", help="act by an expression on a vector")
    m1.add_argument("--rank", type=int, required=True)
    m1.add_argument("--word", required=True)
    m1.add_argument("--expr", required=True)
    m1.add_argument("--vector", required=True, help='JSON like [{"n":[0,0],"coeff":[...]}]')
    m1.add_argument("--params", default="", help="g1=rat:qexp,... (default formal)")
    m1.set_defaults(func=cmd_module)
    m2 = msub.add_parser("verify", help="truncated relation suite")
    m2.add_argument("--rank", type=int, default=1)
    m2.add_argument("--kind", default="Laurent")
    m2.add_argument("--tensor", action="store_true")
    m2.add_argument("--word")
    m2.add_argument("--truncate", type=_nonnegative, default=20,
                    help="rank-1: check indices -N..N; --tensor: every n is checked at "
                         "once, N sets only the reported ball max|n_k| <= N and the "
                         "failure search")
    m2.add_argument("--gamma", help="rational:q-exponent")
    m2.add_argument("--eta")
    m2.add_argument("--params")
    m2.set_defaults(func=cmd_module)

    p = sub.add_parser("verify", help="verification suites over word families")
    p.add_argument("--suite", choices=("congruence", "relations", "psi", "lemma", "invariants"),
                   required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--word")
    p.add_argument("--max-len", type=_nonnegative, default=4)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # values like "-2,1,-1" would otherwise be taken for option strings
    merged = []
    i = 0
    dashy = {"--word", "--gamma", "--eta", "--params", "--expr"}
    while i < len(argv):
        tok = argv[i]
        if tok in dashy and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    parser = build_parser()
    args = parser.parse_args(merged)
    if hasattr(sys, "set_int_max_str_digits"):  # absent before 3.10.7, which has no limit
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except RuntimeError as exc:
        from .intlinalg import CrossCheckFailed  # any raiser has loaded it already
        if not isinstance(exc, CrossCheckFailed):
            raise
        print(f"internal cross-check failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
