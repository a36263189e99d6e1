import json
import random

import pytest

from conftest import random_double_word, scaled, word_to_permutation
from qck import pivots, weyl, wiring
from qck.qtorus import QTorusElement

REF_WORD = (1, 2, 1, -1, -2)


def test_is_pivot_reference_word_claims(A2):
    u34 = wiring.minor_image(A2, REF_WORD, (1, 2), (1, 2))
    a = (-1, -1, -1, -1, -1)
    assert pivots.is_pivot(u34, a, {1, 2, 5}, 2) == (0, 1, 0, 0, 1)
    assert pivots.is_pivot(u34, a, {1, 5}, 5) == (0, 1, 0, 0, 1)

    u12 = wiring.minor_image(A2, REF_WORD, (1, 3), (1, 2))
    a1 = (-3, 1, -3, -1, -1)
    assert pivots.is_pivot(u12, a1, set(range(1, 6)), 3) == (1, -1, 1, 1, 0)
    assert pivots.is_pivot(u12, a1, {1, 2, 4, 5}, 4) == (1, -1, 1, 1, 0)

    u5 = wiring.minor_image(A2, REF_WORD, (1,), (2,))
    assert pivots.is_pivot(u5, a, {1}, 1) == (1, 0, 0, -1, 1)


def test_is_pivot_rejects_weak_inequality():
    # single monomial with a.c = 0 fails the strict component
    u = QTorusElement.monomial(2, (1, 1), (0, 3), (0, 0))
    assert pivots.is_pivot(u, (1, 1), {1, 2}, 1) is None


def test_is_pivot_structural_errors():
    u = QTorusElement.monomial(1, (1,), (-1,), (0,))
    with pytest.raises(pivots.InvalidType):
        pivots.is_pivot(u, (1,), {1}, 2)
    with pytest.raises(pivots.InvalidType):
        pivots.is_pivot(QTorusElement.monomial(2, (1, 1), (1, 1), (0, 0)), (1, 0), {1, 2}, 1)


def test_is_pivot_invariant_under_scalar(A2):
    u = wiring.minor_image(A2, REF_WORD, (1, 2), (1, 2))
    a = (-1, -1, -1, -1, -1)
    assert pivots.is_pivot(scaled(u, {(3, ()): -7}), a, {1, 2, 5}, 2) == pivots.is_pivot(u, a, {1, 2, 5}, 2)


def test_certificate_structure_validation():
    with pytest.raises(pivots.InvalidType):
        pivots.PivotCertificate(word=(-1, 1), order=(1, 1), claims=(None, None))
    with pytest.raises(pivots.InvalidType):
        pivots.PivotCertificate(word=(-1, 1), order=(1, 2), claims=())


def test_claim_types_follow_order():
    cert = pivots.TABLE1[6]["certificate"]  # reference word row
    assert cert.order == (3, 4, 2, 5, 1)
    assert cert.claim_type(0) == (frozenset({1, 2, 3, 4, 5}), 3)
    assert cert.claim_type(2) == (frozenset({1, 2, 5}), 2)
    assert cert.claim_type(4) == (frozenset({1}), 1)


def test_first_table_row(A2):
    report = pivots.check_certificate(A2, pivots.TABLE1[0]["certificate"])
    assert report.passed
    assert [c.a for c in report.claims] == [(1, 1), (1, 1)]


def test_reference_table_row(A2):
    report = pivots.check_certificate(A2, pivots.TABLE1[6]["certificate"])
    assert report.passed
    assert report.claims[0].a == (-3, 1, -3, -1, -1)
    assert report.claims[2].a == (-1, -1, -1, -1, -1)
    assert report.claims[0].witness == (1, -1, 1, 1, 0)


def test_failing_certificate_reports(A2):
    cert = pivots.PivotCertificate(
        word=(-1, 1),
        order=(1, 2),
        claims=(
            pivots.PivotClaim(a_expr="x11", elem_expr="x11"),
            pivots.PivotClaim(a_expr="x12", elem_expr="x22"),
        ),
    )
    report = pivots.check_certificate(A2, cert)
    assert not report.passed
    assert report.claims[0].error == "no pivot witness"
    # x12 image on (-1, 1) is a unit whose direction has a zero entry
    assert "zero x-exponent" in report.claims[1].error


@pytest.mark.parametrize("a_expr, elem_expr, named", [
    ("x44", "x22", "out of range"),
    ("x11", "minor(14|14)", "out of range"),
    ("x13^-1", "x22", "negative power of a non-unit"),
    ("minor(12|1)", "x22", "equal row and column counts"),
])
def test_claim_errors_are_reported_not_raised(A2, a_expr, elem_expr, named):
    cert = pivots.PivotCertificate(
        word=(-1, 1),
        order=(1, 2),
        claims=(pivots.PivotClaim(a_expr, elem_expr), pivots.PivotClaim("x11", "x22")),
    )
    report = pivots.check_certificate(A2, cert)
    assert not report.passed
    assert not report.claims[0].passed and named in report.claims[0].error
    assert report.claims[1].passed  # the claims after a failing one are still checked


def test_certificate_json_roundtrip():
    cert = pivots.TABLE1[3]["certificate"]
    again = pivots.PivotCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert again == cert


def test_auto_certificate_examples(A1, A2):
    cert = pivots.auto_certificate_disjoint(A2, (-1, 2))
    assert cert is not None
    assert pivots.check_certificate(A2, cert).passed
    cert = pivots.auto_certificate_disjoint(A2, (1, 2, 1))
    assert cert is not None and pivots.check_certificate(A2, cert).passed
    assert pivots.auto_certificate_disjoint(A1, (-1, 1)) is None


def test_auto_certificate_random_a3(A3):
    rng = random.Random(5)
    found = 0
    while found < 25:
        word = random_double_word(A3, rng, 6)
        if set(abs(e) for e in word if e < 0) & set(e for e in word if e > 0):
            continue
        found += 1
        cert = pivots.auto_certificate_disjoint(A3, word)
        assert cert is not None
        report = pivots.check_certificate(A3, cert)
        assert report.passed, (word, [c.error for c in report.claims])


def test_auto_certificate_evaluates_no_expression(monkeypatch, A3):
    # check_certificate is the one verifier of an automatic certificate
    def boom(*args):
        raise AssertionError("auto_certificate_disjoint evaluated an expression")

    monkeypatch.setattr(wiring, "expression_image", boom)
    for word in ((), (-1, 2, -3), (1, 2, 1, -3)):
        cert = pivots.auto_certificate_disjoint(A3, word)
        assert cert is not None and len(cert.claims) == len(word)


def test_auto_certificate_rejects_non_type_a_data():
    b2 = weyl.RootDatum(n=2, cartan=((2, -2), (-1, 2)), d=(1, 2))
    for word in ((-1, 2), (-1, 1)):  # disjoint and intersecting supports
        with pytest.raises(ValueError, match="type-A"):
            pivots.auto_certificate_disjoint(b2, word)


def test_check_certificate_rejects_non_type_a_data(monkeypatch, A2):
    b2 = weyl.RootDatum(n=2, cartan=((2, -2), (-1, 2)), d=(1, 2))
    cert = pivots.auto_certificate_disjoint(A2, (-1, 2))

    def boom(*args):
        raise AssertionError("check_certificate evaluated a claim")

    monkeypatch.setattr(wiring, "expression_image", boom)
    with pytest.raises(ValueError, match="type-A"):
        pivots.check_certificate(b2, cert)


def test_table1_suite_all_pass(A2):
    suite = pivots.table1_suite(A2)
    assert len(suite) == 10
    assert all(row["report"].passed for row in suite)


def test_table1_requires_rank_two(A3):
    with pytest.raises(ValueError):
        pivots.table1_suite(A3)


def _cycles(perm):
    """Cycle notation of a permutation in one-line notation, read i -> perm[i],
    each cycle from its least point; fixed points are left out."""
    seen, out = set(), ""
    for start in range(1, len(perm) + 1):
        cycle, i = [], start
        while i not in seen and perm[start - 1] != start:
            seen.add(i)
            cycle.append(i)
            i = perm[i - 1]
        out += f"({''.join(map(str, cycle))})" if cycle else ""
    return out


def test_table1_labels_match_their_words(A2):
    for row in pivots.TABLE1:
        w1, w2, _supp = weyl.split_double_word(A2, row["certificate"].word)
        label = ",".join(_cycles(word_to_permutation(A2, w)) for w in (w1, w2))
        assert label == row["cell"], row["certificate"].word
    assert _cycles((2, 3, 1)) == "(123)" and _cycles((3, 2, 1)) == "(13)" and _cycles((1, 2)) == ""
