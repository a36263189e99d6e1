"""The commands of tests/golden/transcript.jsonl beyond the benchmark's own:
the README's code blocks, parsed, and the edge commands (parse errors,
malformed vectors, parameters, certificates and matrices, module kinds,
and exponents past the torus packing guard)."""

import json
import re
import shlex
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# files the README's commands name; the certificate is the README's example
README_FILES = {
    "my_certificate.json": json.dumps({
        "word": "-1,1", "order": [1, 2],
        "claims": [{"a_expr": "x11", "elem_expr": "x22"}, {"a_expr": "x11", "elem_expr": "x22"}],
    }) + "\n",
    "matrix.txt": "2 4 4\n-6 6 12\n10 -4 -16\n",
}


def readme_commands():
    """(argv, stdin) of every `qck` command in the README's sh code blocks,
    in order; `echo TEXT | qck ...` gives TEXT and a newline as stdin, and a
    `> file` redirection is dropped."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        pending = ""
        for line in block.splitlines():
            pending += line + "\n"
            if line.endswith("\\"):
                continue
            try:
                tokens = shlex.split(pending.replace("\\\n", " "), comments=True)
            except ValueError:  # a quote is still open
                continue
            pending = ""
            stdin = None
            if tokens[:1] == ["echo"] and "|" in tokens:
                stdin = " ".join(tokens[1:tokens.index("|")]) + "\n"
                tokens = tokens[tokens.index("|") + 1:]
            if tokens[:1] == ["qck"]:
                argv = tokens[1:tokens.index(">")] if ">" in tokens else tokens[1:]
                commands.append((argv, stdin))
    return commands


_VECTOR = '[{"n":[0,0],"coeff":[{"q":0,"gamma":[],"num":1,"den":1}]}]'
_ACT = ("module", "act", "--rank", "1", "--word", "-1,1")
_TENSOR = ("module", "verify", "--tensor", "--rank", "1", "--word", "-1,1", "--truncate", "1")
_IMAGE = ("image", "--rank", "1", "--word", "-1")
_REF = ("image", "--rank", "2", "--word", "1,2,1,-1,-2")
_CERT = ("pivots", "check", "--rank", "1", "--cert", "cert.json")
_SMITH = ("normal-form", "--kind", "smith", "--file", "m.json")
_SKEW = ("normal-form", "--kind", "skew", "--file", "m.json")


def _cert(data):
    return {"cert.json": json.dumps(data) + "\n"}


def _matrix(text):
    return {"m.json": text + "\n"}


# (argv, stdin, files)
EDGE_COMMANDS = [
    # word, expression and --minor parse errors
    (("analyze", "--rank", "2", "--word", "1,,2"), None, {}),
    (("image", "--rank", "2", "--word", "1,x", "--minor", "1|1"), None, {}),
    (("image", "--rank", "2", "--word", "3", "--minor", "1|1"), None, {}),
    (("analyze", "--rank", "0", "--word", "1"), None, {}),
    (("image", "--rank", "2", "--word", "1,2", "--expr", "x1²"), None, {}),
    (("image", "--rank", "2", "--word", "1,2", "--expr", "x١٢"), None, {}),
    (("image", "--rank", "2", "--word", "1,2", "--expr", "minor(1²|12)"), None, {}),
    (("image", "--rank", "2", "--word", "1,2", "--expr", "x123"), None, {}),
    (("image", "--rank", "2", "--word", "1,2", "--expr", "x12 *"), None, {}),
    (("image", "--rank", "2", "--word", "1,2", "--expr", "x13^-1"), None, {}),
    (("image", "--rank", "2", "--word", "1,2", "--expr", "x44"), None, {}),
    (("image", "--rank", "2", "--word", "1,2", "--minor", "11|12"), None, {}),
    (("image", "--rank", "2", "--word", "1,2", "--minor", "12|1"), None, {}),
    (("image", "--rank", "2", "--word", "1,2", "--minor", "1|1)*x11*minor(2|2"), None, {}),
    (("image", "--rank", "2", "--word", "1,2", "--minor", ""), None, {}),
    (("image", "--rank", "2", "--word", "1,2"), None, {}),
    (("diagram", "--rank", "2", "--word", "1,2", "--format", "json"), None, {}),
    (("diagram", "--rank", "2", "--word", ""), None, {}),
    # module act: --vector not a list, without coeff, of the wrong length
    (_ACT + ("--expr", "x11", "--vector", '{"n":[0,0]}'), None, {}),
    (_ACT + ("--expr", "x11", "--vector", '[{"n":[0,0]}]'), None, {}),
    (_ACT + ("--expr", "x11", "--vector", '[5]'), None, {}),
    (_ACT + ("--expr", "x11", "--vector", '[{"n":[0],"coeff":[]}]'), None, {}),
    (_ACT + ("--expr", "x11", "--vector", '[{"n":[0,0],"coeff":[{"q":0}]}]'), None, {}),
    (_ACT + ("--expr", "x11", "--vector", "not json"), None, {}),
    (_ACT + ("--expr", "x11", "--vector", _VECTOR, "--params", "g1=1/0"), None, {}),
    (_ACT + ("--expr", "x11", "--vector", "[]", "--params", "g2=0:1"), None, {}),
    # module act whose indices sort differently as tuples and as packed integers
    (_ACT + ("--expr", "x11 * x22^2",
             "--vector", '[{"n":[1,0],"coeff":[{"q":1,"gamma":[],"num":2,"den":1}]},'
                         '{"n":[0,1],"coeff":[{"q":0,"gamma":[1,0],"num":-1,"den":3}]},'
                         '{"n":[-1,2],"coeff":[{"q":0,"gamma":[],"num":1,"den":1}]}]'), None, {}),
    (_ACT + ("--expr", "x12 * x21", "--vector", _VECTOR, "--params", "g1=2:1"), None, {}),
    # an index and exponents past the packing guard of the module action
    (_ACT + ("--expr", "x11^-4097 * x22^2",
             "--vector", '[{"n":[4096,-4096],"coeff":[{"q":0,"gamma":[],"num":1,"den":1}]},'
                         '{"n":[-5000,123456789012],"coeff":[{"q":3,"gamma":[0,1],"num":1,"den":2}]}]'),
     None, {}),
    # bad --params and --gamma values, unknown and specialised module verify kinds
    (_TENSOR + ("--params", "gx=1"), None, {}),
    (_TENSOR + ("--params", "g1=1,g1=2"), None, {}),
    (_TENSOR + ("--params", "g3=1"), None, {}),
    (_TENSOR + ("--params", "g1=0"), None, {}),
    (_TENSOR + ("--params", "g1=-2/3:1"), None, {}),
    (("module", "verify", "--kind", "Laurent", "--gamma", "1/0"), None, {}),
    (("module", "verify", "--kind", "Laurent", "--gamma", "1:x"), None, {}),
    (("module", "verify", "--kind", "Laurent", "--eta", "2:1.5"), None, {}),
    (("module", "verify", "--kind", "HighestWeight", "--eta", "0"), None, {}),
    (("module", "verify", "--kind", "Bogus"), None, {}),
    (("module", "verify", "--tensor", "--word", "-1,1", "--kind", "Bogus"), None, {}),
    (("module", "verify", "--tensor", "--word", "-1,1", "--gamma", "5"), None, {}),
    (("module", "verify", "--kind", "Mminus", "--word", "1,2"), None, {}),
    (("module", "verify", "--kind", "Mminus", "--truncate", "-3"), None, {}),
    (("module", "verify", "--kind", "HighestWeight", "--gamma", "3:2", "--eta", "-1/2",
      "--truncate", "4"), None, {}),
    (("module", "verify", "--kind", "LowestWeight", "--gamma", "1/3:-1", "--truncate", "4"),
     None, {}),
    (("module", "verify", "--kind", "Mplus", "--eta", "7:2", "--truncate", "2"), None, {}),
    # malformed certificates
    (_CERT, None, _cert({"word": 5, "order": [1, 2], "claims": []})),
    (_CERT, None, _cert({"word": "-1,1", "order": [1, "2"], "claims": []})),
    (_CERT, None, _cert({"word": "-1,1", "order": [1, 2], "claims": [5]})),
    (_CERT, None, _cert({"word": "-1,1", "order": [1, 2]})),
    (_CERT, None, _cert([1, 2])),
    (_CERT, None, {"cert.json": "{not json\n"}),
    (("pivots", "check", "--rank", "2", "--cert", "cert.json"), None,
     _cert({"word": "-1,1", "order": [1, 2], "claims": [{"a_expr": "x13^-1", "elem_expr": "x22"},
                                                         {"a_expr": "x11", "elem_expr": "x22"}]})),
    (("pivots", "auto", "--rank", "1", "--word", "-1,1"), None, {}),
    # ragged, empty-row, non-skew and unparsable matrices
    (_SMITH, None, _matrix("[[0,1],[-1]]")),
    (_SKEW, None, _matrix("[[0,1.5],[-1.5,0]]")),
    (_SKEW, None, _matrix("[[]]")),
    (_SKEW, None, _matrix("[[0, 1, 2], [-1, 0, 3]]")),
    (_SKEW, None, _matrix("[[0, 1], [1, 0]]")),
    (_SMITH, None, _matrix('{"a":1}')),
    (("normal-form", "--kind", "smith"), "1 2\n3 x\n", {}),
    (("normal-form", "--kind", "smith"), "1 2 3\n4 5\n", {}),
    (("normal-form", "--kind", "skew"), "", {}),
    # exponents at and past the torus packing guard, 2^12
    (_IMAGE + ("--expr", "x11^4095"), None, {}),
    (_IMAGE + ("--expr", "x11^4096 * x21^-4097"), None, {}),
    (_IMAGE + ("--expr", "x22^1000000 * x21^3"), None, {}),
    (_IMAGE + ("--expr", "x11^-4096 * x22^-4096"), None, {}),
    (_REF + ("--expr", "x21^2 * x33^5000 * minor(23|23)^-4096"), None, {}),
    (_REF + ("--expr", "x12^3 * x33^4093"), None, {}),
]
