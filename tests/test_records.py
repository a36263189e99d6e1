"""The records of qck are named tuples, but for WordInvariants: equal
fields give equal records, fields refuse assignment, and validation raises
what it always raised."""

import copy

import pytest

from qck import appendix_congruence, intlinalg, pivots, strings, weyl, wiring
from qck import slq2_tensor as sq

REF = (1, 2, 1, -1, -2)


def _records():
    """One record of each kind, by name."""
    A2 = weyl.type_a(2)
    cert = pivots.TABLE1[1]["certificate"]
    report = pivots.check_certificate(A2, cert)
    return {
        "RootDatum": A2,
        "WiringDiagram": wiring.build_diagram(2, REF),
        "StringMatrices": strings._context(A2, REF),
        "WordInvariants": strings.invariants(A2, REF),
        "SkewNormalForm": intlinalg.skew_normal_form([[0, 2], [-2, 0]]),
        "ReducedWordMatrices": appendix_congruence.build_word_matrices(A2, (1, 2, 1)),
        "TypicalModuleSpec": sq.TypicalModuleSpec("Laurent", {(1, ()): 2}),
        "PivotClaim": cert.claims[0],
        "PivotCertificate": cert,
        "ClaimReport": report.claims[0],
        "CertificateReport": report,
    }


NAMES = [name for name in _records() if name != "WordInvariants"]


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_give_equal_records(name):
    record = _records()[name]
    assert type(record).__name__ == name
    again = type(record)(**record._asdict())
    assert again == record and again is not record and type(again) is type(record)
    assert _records()[name] == record  # built again from scratch


@pytest.mark.parametrize("name", NAMES)
def test_fields_refuse_assignment(name):
    record = _records()[name]
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_word_invariants_compare_by_value_and_take_a_changed_field():
    inv = _records()["WordInvariants"]
    again = strings.WordInvariants(**{f: getattr(inv, f) for f in inv.__slots__})
    assert again == inv and again is not inv and _records()["WordInvariants"] == inv
    assert inv != tuple(getattr(inv, f) for f in inv.__slots__)
    bad = copy.copy(inv)
    bad.d += 1
    assert bad != inv and inv.d == bad.d - 1
    with pytest.raises(TypeError):
        hash(inv)


@pytest.mark.parametrize("name", ["WiringDiagram", "TypicalModuleSpec", "PivotClaim",
                                  "PivotCertificate", "ClaimReport", "SkewNormalForm"])
def test_records_without_cached_properties_take_no_new_attributes(name):
    with pytest.raises(AttributeError):
        _records()[name].extra = 1


def test_root_datum_from_lists_is_the_memo_key_of_the_tuple_datum():
    lists = weyl.RootDatum(n=2, cartan=[[2, -1], [-1, 2]], d=[1, 1])
    tuples = weyl.RootDatum(2, ((2, -1), (-1, 2)), (1, 1))
    assert lists == tuples and hash(lists) == hash(tuples)
    assert lists.cartan == ((2, -1), (-1, 2)) and lists.d == (1, 1)
    strings._context.cache_clear()
    ctx = strings._context(tuples, REF)
    assert strings._context(lists, REF) is ctx
    assert strings._context.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert lists.is_type_a and lists.simple_roots == ((2, -1), (-1, 2))


def test_cached_properties_are_kept():
    ctx = strings._context(weyl.type_a(2), REF)
    assert ctx.H_form is ctx.H_form and ctx.LambdaInv is ctx.LambdaInv


@pytest.mark.parametrize("cartan, d, message", [
    (((2, -1),), (1, 1), "bad Cartan matrix shape"),
    (((2, -1), (-1,)), (1, 1), "bad Cartan matrix shape"),
    (((2, -1), (-1, 2)), (1,), "1 symmetrizers for rank 2"),
    (((1, -1), (-1, 2)), (1, 1), "Cartan diagonal must be 2"),
    (((2, -1), (-1, 2)), (0, 0), "symmetrizers must be positive"),
    (((2, 1), (1, 2)), (1, 1), "off-diagonal Cartan entries must be <= 0"),
    (((2, -2), (-1, 2)), (1, 1), "Cartan matrix is not symmetrizable"),
])
def test_bad_cartan_data_are_named(cartan, d, message):
    with pytest.raises(ValueError) as exc:
        weyl.RootDatum(n=2, cartan=cartan, d=d)
    assert str(exc.value) == message


def test_letter_out_of_range_is_named():
    with pytest.raises(IndexError) as exc:
        wiring.WiringDiagram(levels=3, word=(1, -3))
    assert str(exc.value) == "letter -3 out of range for rank 2"


@pytest.mark.parametrize("order, claims, message", [
    ((1, 1), ("a", "b"), "order (1, 1) is not a permutation of 1..2"),
    ((1, 2), ("a",), "need exactly one claim per word letter"),
])
def test_bad_certificates_are_named(order, claims, message):
    with pytest.raises(pivots.InvalidType) as exc:
        pivots.PivotCertificate(word=(-1, 1), order=order, claims=claims)
    assert str(exc.value) == message


def test_unknown_module_kind_and_bad_parameter_are_named():
    with pytest.raises(ValueError) as exc:
        sq.TypicalModuleSpec("Bogus")
    assert str(exc.value) == ("unknown module kind 'Bogus'; the kinds are "
                              "Mminus, Mplus, Laurent, HighestWeight, LowestWeight")
    with pytest.raises(ValueError) as exc:
        sq.TypicalModuleSpec(kind="Laurent", eta={(0, ()): 0})
    assert str(exc.value) == "parameter eta = 0 is not a nonzero rational times a power of q"
    spec = sq.TypicalModuleSpec("Mminus")
    assert spec.gamma is None and spec.eta is None


def test_claim_report_is_built_from_what_the_check_reached():
    A2 = weyl.type_a(2)
    claims = (pivots.PivotClaim("x11 * x33", "x22"), pivots.PivotClaim("x12", "x22"),
              pivots.PivotClaim("x11 * x33", "minor(12|1)"))
    cert = pivots.PivotCertificate(word=(-1, 1, 2), order=(1, 2, 3), claims=claims)
    passed, zero_entry, bad_elem = pivots.check_certificate(A2, cert).claims
    assert passed.passed and passed.error == "" and passed.witness is not None
    # a unit with a zero x-exponent entry fails before the report takes its a
    assert "has zero x-exponent entries" in zero_entry.error
    assert (zero_entry.a, zero_entry.witness, zero_entry.supp_x) == (None, None, [])
    assert not zero_entry.passed
    assert bad_elem.a == passed.a and bad_elem.supp_x == [] and not bad_elem.passed
    assert "equal row and column counts" in bad_elem.error
