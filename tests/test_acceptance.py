"""Acceptance suite: one test per exit criterion, exact arithmetic throughout.

Each criterion prints a single PASS/FAIL line with its elapsed time (run
pytest with -s, or read the captured output).  Tolerances are zero: every
comparison is exact equality of integers, rationals, or term maps.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager

import pytest

from conftest import (
    congruence_record,
    ker_rank,
    permutation_expansion_image,
    phi,
    random_double_word,
    results_by_cell,
    simplicity_record,
    split_cells,
    word_to_permutation,
)
from qck import appendix_congruence as ac
from qck import cli, intlinalg, pivots, slq2_tensor as sq, strings, weyl, wiring
from qck.qtorus import QTorusElement

REF_WORD = (1, 2, 1, -1, -2)
REF_D = (1, 1, 1, 1, 1)


@contextmanager
def criterion(number, description):
    import conftest

    start = time.time()
    try:
        yield
    except BaseException:
        line = f"ACCEPTANCE {number:>2} FAIL  {description}  [{time.time() - start:.2f}s]"
        print(line)
        conftest.ACCEPTANCE_LINES.append(line)
        raise
    line = f"ACCEPTANCE {number:>2} PASS  {description}  [{time.time() - start:.2f}s]"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def _mono(a, b, qexp=0, c=1):
    return QTorusElement.monomial(5, REF_D, a, b, {(qexp, ()): c})


def _image_via_cli(capsys, expr):
    code = cli.main(["image", "--rank", "2", "--word", "1,2,1,-1,-2", "--expr", expr])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_1_reference_example(capsys):
    """Term-for-term reproduction of the rank-2 reference-word images,
    x-supports, and pivot directions."""
    with criterion(1, "reference-word images, supports, pivot directions"):
        expected_images = {
            "x21^2 * x33 * minor(23|23)": _mono(
                (-3, 1, -3, -1, -1), (0, 0, 0, 2, 0), qexp=2
            ),
            "x33 * minor(23|23)": _mono((-1, -1, -1, -1, -1), (0, 0, 0, 0, 0)),
            "minor(13|12)": (
                _mono((0, 0, -1, 0, 0), (1, 0, 0, 1, 1))
                + _mono((1, -1, 0, 0, 0), (0, 0, 1, 1, 1))
                + _mono((1, -1, 1, 1, 0), (0, 0, 0, 0, 1))
            ),
            "minor(12|12)": (
                _mono((0, 0, 0, 0, 0), (0, 1, 1, 1, 1))
                + _mono((0, 0, 1, 1, 0), (0, 1, 0, 0, 1))
                + _mono((0, 1, 0, 0, 1), (0, 0, 0, 0, 0))
            ),
            "x12": (
                _mono((0, 0, 0, 0, 0), (1, 1, 0, 0, 1))
                + _mono((0, 1, -1, -1, 1), (1, 0, 0, 0, 0))
                + _mono((1, 0, 0, -1, 1), (0, 0, 1, 0, 0))
            ),
        }
        for expr, expected in expected_images.items():
            got = _image_via_cli(capsys, expr)
            assert got == expected.to_json(), expr

        A2 = weyl.type_a(2)
        u = {
            1: wiring.minor_image(A2, REF_WORD, (1, 3), (1, 2)),
            3: wiring.minor_image(A2, REF_WORD, (1, 2), (1, 2)),
            5: wiring.minor_image(A2, REF_WORD, (1,), (2,)),
        }
        assert u[1].supp_x() == {(0, 0, -1, 0, 0), (1, -1, 0, 0, 0), (1, -1, 1, 1, 0)}
        assert u[3].supp_x() == {(0, 0, 0, 0, 0), (0, 0, 1, 1, 0), (0, 1, 0, 0, 1)}
        assert u[5].supp_x() == {(0, 0, 0, 0, 0), (0, 1, -1, -1, 1), (1, 0, 0, -1, 1)}

        a_dirs = {}
        for idx, expr in ((1, "x21^2 * x33 * minor(23|23)"), (3, "x33 * minor(23|23)")):
            unit = wiring.expression_image(A2, REF_WORD, expr).as_unit()
            assert unit is not None
            a_dirs[idx] = unit[0][0]
        assert a_dirs[1] == (-3, 1, -3, -1, -1)
        assert a_dirs[3] == (-1, -1, -1, -1, -1)


def _all_minors(n1):
    return [
        (A, B)
        for k in range(1, n1 + 1)
        for A in itertools.combinations(range(1, n1 + 1), k)
        for B in itertools.combinations(range(1, n1 + 1), k)
    ]


def test_criterion_2_lindstrom_oracle():
    """Path-family minor images equal the permutation-expansion oracle on 200
    random words (100 per rank, lengths <= 8) and exhaustively on short
    rank-2 words."""
    with criterion(2, "quantum path-family sum = permutation expansion"):
        for rank, seed in ((2, 202), (3, 303)):
            datum = weyl.type_a(rank)
            minors = _all_minors(rank + 1)
            rng = random.Random(seed)
            for _ in range(100):
                word = random_double_word(datum, rng, 8)
                for A, B in minors:
                    assert wiring.minor_image(datum, word, A, B) == (
                        permutation_expansion_image(datum, word, A, B)
                    ), (word, A, B)
        A2 = weyl.type_a(2)
        minors = _all_minors(3)
        for word in weyl.all_double_words(A2, 4):
            for A, B in minors:
                assert wiring.minor_image(A2, word, A, B) == (
                    permutation_expansion_image(A2, word, A, B)
                ), (word, A, B)


def test_criterion_3_homomorphism_suite():
    """Images satisfy every quantum-matrix relation and send the quantum
    determinant to 1, on 50 random words per rank."""
    with criterion(3, "relation and determinant suite, 50 words per rank"):
        for rank in (1, 2, 3):
            datum = weyl.type_a(rank)
            rng = random.Random(1000 + rank)
            for _ in range(50):
                word = random_double_word(datum, rng, 8 - rank)
                report = wiring.verify_relations(datum, word)
                assert all(ok for _name, ok in report), word


def _one_word_per_element(datum, max_len):
    seen = {}
    for cls in weyl.all_reduced_words(datum, max_len):
        for word in cls:
            perm = word_to_permutation(datum, word)
            seen.setdefault(perm, word)
    return seen


def test_criterion_4_rank_identities():
    """rank Phi = m + |supp| and m + n - rank H = dim ker(w1 - w2) with k a
    nonnegative integer, on all 36 rank-2 pairs and 50 random rank-3 pairs."""
    with criterion(4, "rank identities on 36 + 50 double cells"):
        A2 = weyl.type_a(2)
        words = list(_one_word_per_element(A2, 3).values())
        assert len(words) == 6
        checked = 0
        for u1 in words:
            for u2 in words:
                word = tuple(-i for i in u1) + u2
                mats = strings._context(A2, word)
                inv = strings.invariants(A2, word)  # internal cross-checks
                m = len(word)
                rank_phi = intlinalg.rank_over_Q(phi(mats)) if m else 0
                assert rank_phi == inv.n_dim
                assert inv.n_dim == m + len(set(abs(e) for e in word))
                assert inv.d == ker_rank(A2, u1, u2)
                assert inv.k >= 0
                checked += 1
        assert checked == 36

        A3 = weyl.type_a(3)
        words3 = list(_one_word_per_element(A3, 6).values())
        assert len(words3) == 24
        rng = random.Random(44)
        for _ in range(50):
            u1 = rng.choice(words3)
            u2 = rng.choice(words3)
            word = tuple(-i for i in u1) + u2
            inv = strings.invariants(A3, word)
            assert inv.n_dim == len(word) + len(set(abs(e) for e in word))
            assert inv.d == ker_rank(A3, u1, u2)
            assert inv.k >= 0


def test_criterion_5_appendix_congruence(c5_congruence_sweep):
    """Q^T Ht Q = script-H exactly, the base-change lemma on all S_3/S_4
    reduced words, the rank formula, and equality of skew multipliers, on all
    double words of length <= 6 over ranks 1-3; and on rank 3 the
    multipliers and verdict are the same for every reduced double word of a
    cell (W1, W2)."""
    with criterion(5, "congruence suite over ranks 1-3, length <= 6"):
        for rank in (2, 3):
            datum = weyl.type_a(rank)
            for cls in weyl.all_reduced_words(datum, 6):
                for word in cls:
                    rep = ac.verify_lemma(datum, word)
                    assert rep["ok"], (rank, word)
        for rank in (1, 2):
            for rep in c5_congruence_sweep(rank)[0].values():
                congruence_record(rep)
        reports = c5_congruence_sweep(3)[0]
        cells = results_by_cell(weyl.type_a(3), reports, lambda datum, word: congruence_record(reports[word]))
        assert len(cells) == 341
        assert split_cells(cells) == {}


def test_criterion_6_psi_determinantal_divisors():
    """All nonzero Smith factors of the Psi block matrix are 1 on every
    rank-2 double cell."""
    with criterion(6, "Psi determinantal divisors on all 36 pairs"):
        A2 = weyl.type_a(2)
        words = list(_one_word_per_element(A2, 3).values())
        for u1 in words:
            for u2 in words:
                word = tuple(-i for i in u1) + u2
                ok, factors = strings.psi_check(A2, word)
                assert ok, (word, factors)


def test_criterion_7_table1(capsys):
    """The ten built-in rank-2 certificates all validate, exit code 0."""
    with criterion(7, "built-in rank-2 certificate table, 10 rows"):
        code = cli.main(["pivots", "table1"])
        out = capsys.readouterr().out
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 10
        assert all(row["passed"] for row in rows)


def test_criterion_8_disjoint_auto_certificates():
    """Automatic certificates succeed and validate on every disjoint-support
    double word of length <= 6 over rank 3."""
    with criterion(8, "disjoint-support auto-certificates, rank 3"):
        A3 = weyl.type_a(3)
        count = 0
        for word in weyl.all_double_words(A3, 6):
            neg = set(abs(e) for e in word if e < 0)
            pos = set(e for e in word if e > 0)
            if neg & pos:
                assert pivots.auto_certificate_disjoint(A3, word) is None
                continue
            cert = pivots.auto_certificate_disjoint(A3, word)
            assert cert is not None, word
            report = pivots.check_certificate(A3, cert)
            assert report.passed, (word, [c.error for c in report.claims])
            count += 1
        assert count > 100  # sanity: the family is not trivially small


def test_criterion_9_module_relations():
    """Truncated relation suites: the five rank-1 kinds at truncation 20 with
    formal parameters, tensor words of length <= 4 at truncation 6, and exact
    detection of the excluded parameter values."""
    with criterion(9, "module relation suites, truncations 20 / 6"):
        for kind in sq.KINDS:
            rep = sq.verify_typical_relations(sq.TypicalModuleSpec(kind=kind), 20)
            assert rep["ok"], (kind, rep["failures"][:3])

        # excluded Laurent parameters are detected at the exact index
        for exponent, index in ((1, 0), (3, -1), (-1, 1)):
            bad = sq.TypicalModuleSpec(
                kind="Laurent", gamma={(exponent, ()): -1}, eta={(0, ()): 1}
            )
            rep = sq.verify_typical_relations(bad, 20)
            assert ("laurent coefficient 1 + gamma eta q^{2i-1} vanishes", index) in rep[
                "failures"
            ]
        legal = sq.TypicalModuleSpec(kind="Laurent", gamma={(2, ()): -1}, eta={(0, ()): 1})
        assert sq.verify_typical_relations(legal, 20)["ok"]

        tensor_words = [
            (1, (-1, 1)),
            (2, (-1, 2)),
            (2, (1, 2, 1, -1)),
            (3, (-2, 3)),
        ]
        for rank, word in tensor_words:
            datum = weyl.type_a(rank)
            rep = sq.verify_tensor_relations(datum, word, 6)
            assert rep["ok"], (word, rep["failures"][:3])


def test_criterion_10_simplicity_consistency():
    """Tensor-module simplicity bookkeeping: the diagonal torus is full (s =
    m) exactly when the letters are distinct, full diagonal forces an empty
    multiplier list, the center dimension always matches the Weyl-kernel
    formula and rank H its Bareiss rank, on all rank-3 double words of
    length <= 6; and m, s, d, k, rank H and the multipliers are the same for
    every reduced double word of a cell (W1, W2)."""
    with criterion(10, "simplicity criterion consistency, rank 3"):
        A3 = weyl.type_a(3)
        cells = results_by_cell(A3, weyl.all_double_words(A3, 6), simplicity_record)
        assert len(cells) == 341
        assert split_cells(cells) == {}
