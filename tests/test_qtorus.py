import random
from fractions import Fraction

import pytest

from conftest import (accumulate, nested_product, nested_to_json, q_commute_index, scaled,
                      torus_neg, torus_sub, tuple_flat, tuple_mul_into)
from qck import intlinalg, qtorus
from qck.qtorus import (
    QTorusElement,
    ShapeMismatch,
    coeff_from_json,
    coeff_invert,
    coeff_mul,
    coeff_qpow,
)


def mono(m, D, a, b, qexp=0, c=1):
    return QTorusElement.monomial(m, D, a, b, {(qexp, ()): c})


def _random_element(rng, m, D, nterms=3, span=3):
    el = QTorusElement(m, D)
    for _ in range(rng.randint(1, nterms)):
        a = tuple(rng.randint(-span, span) for _ in range(m))
        b = tuple(rng.randint(-span, span) for _ in range(m))
        el = el + mono(m, D, a, b, rng.randint(-2, 2), rng.randint(-3, 3) or 1)
    return el


def test_multiply_single_factor_rearrangement():
    x = mono(1, (1,), (1,), (0,))
    y = mono(1, (1,), (0,), (1,))
    assert y * x == mono(1, (1,), (1,), (1,), qexp=-1)


def test_multiply_inverse_pair():
    D = (1, 2)
    u = mono(2, D, (1, -2), (0, 3))
    v = mono(2, D, (-1, 2), (0, -3))
    prod = u * v
    ((key, c),) = prod.terms.items()
    assert key == ((0, 0), (0, 0))
    # q-exponent b^T D a with a=(1,-2), b=(0,3): 3*2*(-2) = -12
    assert c == {(-12, ()): 1}
    assert u * u.inverse() == QTorusElement.one(2, D)


def test_multiply_binomial_square():
    x = mono(1, (1,), (1,), (0,))
    y = mono(1, (1,), (0,), (1,))
    s = x + y
    got = s * s
    expected = (
        mono(1, (1,), (2,), (0,))
        + mono(1, (1,), (0,), (2,))
        + mono(1, (1,), (1,), (1,))
        + mono(1, (1,), (1,), (1,), qexp=-1)
    )
    assert got == expected


def test_multiply_associative_randomized():
    rng = random.Random(99)
    for _ in range(30):
        m = rng.randint(1, 6)
        D = tuple(rng.randint(1, 3) for _ in range(m))
        u, v, w = (_random_element(rng, m, D, 4) for _ in range(3))
        assert (u * v) * w == u * (v * w)
        one = QTorusElement.one(m, D)
        assert u * one == u == one * u


def test_shape_mismatch():
    u = mono(1, (1,), (1,), (0,))
    v = mono(2, (1, 1), (1, 0), (0, 0))
    with pytest.raises(ShapeMismatch):
        u * v
    w = mono(1, (2,), (1,), (0,))
    with pytest.raises(ShapeMismatch):
        u * w


@pytest.mark.parametrize(
    "u,v,D,expected",
    [
        (((1, 0), (0, 0)), ((0, 0), (1, 0)), (1, 1), 1),
        (((2, 1), (3, -1)), ((2, 1), (3, -1)), (1, 2), 0),
        (
            ((-3, 1, -3, -1, -1), (0, 0, 0, 0, 0)),
            ((0, 0, 0, 0, 0), (1, 1, 1, 1, 1)),
            (1, 1, 1, 1, 1),
            -7,
        ),
    ],
)
def test_q_commute_index_examples(u, v, D, expected):
    assert q_commute_index(u, v, D) == expected
    assert q_commute_index(v, u, D) == -expected


def test_q_commute_index_matches_multiply():
    rng = random.Random(4)
    for _ in range(50):
        m = rng.randint(1, 4)
        D = tuple(rng.randint(1, 3) for _ in range(m))
        a = tuple(rng.randint(-3, 3) for _ in range(m))
        b = tuple(rng.randint(-3, 3) for _ in range(m))
        a2 = tuple(rng.randint(-3, 3) for _ in range(m))
        b2 = tuple(rng.randint(-3, 3) for _ in range(m))
        u = mono(m, D, a, b)
        v = mono(m, D, a2, b2)
        e = q_commute_index((a, b), (a2, b2), D)
        assert u * v == scaled(v * u, coeff_qpow(e))


def test_is_unit_examples():
    D = (1, 1)
    u = mono(2, D, (1, 0), (0, 2), qexp=3, c=2)
    unit = u.as_unit()
    assert unit is not None
    (a, b), c = unit
    assert a == (1, 0) and b == (0, 2) and c == {(3, ()): 2}
    x = mono(1, (1,), (1,), (0,))
    y = mono(1, (1,), (0,), (1,))
    assert (x + y).as_unit() is None
    assert QTorusElement(1, (1,)).as_unit() is None


def test_unit_inverse_exact():
    rng = random.Random(17)
    for _ in range(30):
        m = rng.randint(1, 5)
        D = tuple(rng.randint(1, 3) for _ in range(m))
        a = tuple(rng.randint(-3, 3) for _ in range(m))
        b = tuple(rng.randint(-3, 3) for _ in range(m))
        u = mono(m, D, a, b, rng.randint(-3, 3), Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        assert u * u.inverse() == QTorusElement.one(m, D)
        assert u.inverse() * u == QTorusElement.one(m, D)


def test_unit_inverses_keep_integer_values():
    # 1/v is an int whenever it is one, a Fraction otherwise
    for v, inv in ((1, 1), (-1, -1), (Fraction(1, 2), 2), (Fraction(-1, 3), -3),
                   (2, Fraction(1, 2)), (Fraction(2, 3), Fraction(3, 2))):
        (value,) = coeff_invert({(1, (0, 1)): v}).values()
        (flat_value,) = mono(2, (1, 1), (1, 0), (0, 2), 1, v).inverse().flat.values()
        assert value == flat_value == inv and type(value) is type(flat_value) is type(inv)


def test_supports_and_multiplicity():
    D = (1,)
    u = mono(1, D, (0,), (1,)) + mono(1, D, (0,), (2,))
    assert u.supp_x() == {(0,)}
    assert u.multiplicity((0,)) == 2
    assert u.multiplicity((5,)) == 0
    unit = mono(1, D, (2,), (1,))
    assert unit.supp_x() == {(2,)} and unit.multiplicity((2,)) == 1


def test_powers():
    x = mono(1, (1,), (1,), (0,))
    y = mono(1, (1,), (0,), (1,))
    assert (x + y) ** 0 == QTorusElement.one(1, (1,))
    u = x * y
    assert u ** (-2) == (u.inverse()) ** 2
    with pytest.raises(ValueError):
        (x + y) ** (-1)


def test_powers_equal_repeated_products(monkeypatch):
    rng = random.Random(12)
    D = (1, 2)
    el = _random_element(rng, 2, D, nterms=3, span=2)
    unit = mono(2, D, (1, -2), (2, 1), qexp=3, c=-2)
    inv = unit.inverse()
    for base, powers in ((el, range(6)), (unit, range(-5, 0))):
        for k in powers:
            ref = QTorusElement.one(2, D)
            for _ in range(abs(k)):
                ref = ref * (base if k >= 0 else inv)
            assert base ** k == ref, k
    # x**k takes no product beyond the bits of k: none for k = 1
    products = []
    mul = QTorusElement.__mul__
    monkeypatch.setattr(QTorusElement, "__mul__", lambda s, o: products.append(1) or mul(s, o))
    powered = el ** 1
    assert products == [] and powered == el and powered is not el
    powered.flat.clear()
    assert el.flat
    el ** 5  # two squarings and one product
    assert len(products) == 3


def test_center_basis_examples():
    # the exponent lattice of the center of the torus with commutation
    # matrix H is the kernel of H
    assert sorted(intlinalg.kernel_basis([[0, 0], [0, 0]])) == [[0, 1], [1, 0]]
    assert intlinalg.kernel_basis([[0, 1], [-1, 0]]) == []
    H = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    basis = intlinalg.kernel_basis(H)
    assert len(basis) == 1 and [abs(x) for x in basis[0]] == [0, 0, 1]


def test_torus_decomposition_examples():
    # the skew normal form splits the torus into 2-generator tori L_{q^m}(2),
    # one per multiplier m, and a central Laurent algebra of rank zero_dim
    def split(H):
        nf = intlinalg.skew_normal_form(H)
        return nf.multipliers, nf.zero_dim

    assert split([[0, 1], [-1, 0]]) == ([1], 0)
    assert split([[0] * 3 for _ in range(3)]) == ([], 3)
    # H for the rank-one word (-1, 1), built from its string matrices
    mult, center = split([[0, 1, 1], [-1, 0, 2], [-1, -2, 0]])
    assert len(mult) == 1 and center == 1


def test_to_json_sorts_terms():
    rng = random.Random(2)
    for _ in range(20):
        m = rng.randint(1, 4)
        D = tuple(rng.randint(1, 2) for _ in range(m))
        terms = _random_element(rng, m, D, 4).to_json()["terms"]
        keys = [(tuple(t["a"]), tuple(t["b"])) for t in terms]
        assert keys == sorted(keys)


def test_coeff_from_json_names_a_missing_field():
    with pytest.raises(ValueError, match="coefficient term lacks field 'gamma'"):
        coeff_from_json([{"q": 0}])
    with pytest.raises(ValueError, match="coefficient term lacks field 'den'"):
        coeff_from_json([{"q": 0, "gamma": [], "num": 1}])


def test_gamma_coefficients_multiply():
    c1 = {(0, (1, 0)): 1}
    c2 = {(0, (-1, 0)): 1}
    assert qtorus.coeff_mul(c1, c2) == {(0, ()): 1}
    c3 = qtorus.coeff_mul({(2, (1, 2)): 2}, {(1, (0, 1)): Fraction(1, 2)})
    assert c3 == {(3, (1, 3)): 1}


def _assert_normal(u):
    """No empty coefficient and no zero rational is stored."""
    assert all(c and all(c.values()) for c in u.terms.values())


def _cancelling_element(rng, m, D):
    """A sum of terms drawn from few monomials and opposite coefficients, so
    that sums and products of such elements cancel often."""
    el = QTorusElement(m, D)
    for _ in range(rng.randint(1, 5)):
        a = tuple(rng.randint(0, 1) for _ in range(m))
        b = tuple(rng.randint(-1, 0) for _ in range(m))
        el = el + mono(m, D, a, b, rng.randint(-1, 1), rng.choice((1, -1, 2, Fraction(-1, 2))))
    return el


def test_accumulate_merges_and_drops_cancelled_keys():
    out = accumulate({}, [("u", {(0, ()): 1}), ("v", {(1, ()): 2})])
    assert accumulate(out, [("u", {(0, ()): -1}), ("v", {(0, ()): 3})]) is out
    assert out == {"v": {(1, ()): 2, (0, ()): 3}}
    assert accumulate(out, [("v", {(1, ()): -2, (0, ()): -3}), ("w", {})]) == {}


def test_constructor_stores_no_zero_rational():
    zero = QTorusElement(1, (1,), {((0,), (0,)): {(0, ()): 0}})
    assert not zero.flat and zero == QTorusElement(1, (1,))
    u = QTorusElement(1, (1,), {((0,), (0,)): {(1, ()): 1, (0, ()): 0}})
    assert u.terms == {((0,), (0,)): {(1, ()): 1}}
    assert u + QTorusElement(1, (1,), {((0,), (0,)): {(2, ()): 0}}) == u


def test_an_all_zero_gamma_is_spelled_empty():
    u = QTorusElement(1, (1,), {((1,), (0,)): {(0, (0, 0)): 1}})
    v = QTorusElement(1, (1,), {((1,), (0,)): {(0, ()): 1}})
    one = QTorusElement.one(1, (1,))
    assert u == v
    assert u * one == v * one
    assert u.to_json() == v.to_json()
    both = QTorusElement(1, (1,), {((1,), (0,)): {(0, (0, 0)): 1, (0, ()): 1}})
    assert tuple_flat(both) == {((1,), (0,), 0, ()): 2} and len(both.flat) == 1


def test_ring_laws_on_cancelling_elements():
    rng = random.Random(2024)
    for _ in range(60):
        m = rng.randint(1, 3)
        D = tuple(rng.randint(1, 2) for _ in range(m))
        u, v, w = (_cancelling_element(rng, m, D) for _ in range(3))
        zero = QTorusElement(m, D)
        for x in (u + v, u * v, torus_sub(u, u), (u + v) * w, u * torus_sub(v, w)):
            _assert_normal(x)
        assert (u + v) + w == u + (v + w)
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w
        assert (u + v) * w == u * w + v * w
        assert u + torus_neg(u) == zero and (u + torus_neg(u)).terms == {}
        a = tuple(rng.randint(-2, 2) for _ in range(m))
        b = tuple(rng.randint(-2, 2) for _ in range(m))
        unit = mono(m, D, a, b, rng.randint(-3, 3), rng.choice((3, Fraction(-2, 5))))
        assert unit * unit.inverse() == QTorusElement.one(m, D)


def _scribble(*maps):
    """Overwrite every value of the given flat term maps and add a term."""
    for flat in maps:
        flat.update(dict.fromkeys(flat, 7))
        flat[0, 0, 99, ()] = 7


def test_sums_and_products_own_their_coefficients():
    D = (1, 2)
    for op in (QTorusElement.__add__, QTorusElement.__mul__, torus_sub):
        rng = random.Random(5)
        u, v = _cancelling_element(rng, 2, D), _cancelling_element(rng, 2, D)
        result = op(u, v)
        before = dict(result.flat)
        _scribble(u.flat, v.flat)
        assert result.flat == before
        rng = random.Random(5)
        u, v = _cancelling_element(rng, 2, D), _cancelling_element(rng, 2, D)
        u0, v0 = dict(u.flat), dict(v.flat)
        _scribble(op(u, v).flat)
        assert (u.flat, v.flat) == (u0, v0)


def test_terms_is_a_fresh_view():
    u = _cancelling_element(random.Random(8), 2, (1, 2)) + mono(2, (1, 2), (1, 0), (0, 1), 2, 3)
    flat = dict(u.flat)
    view = u.terms
    assert view == u.terms and view is not u.terms
    for c in view.values():
        c[(99, ())] = 7
    view.clear()
    assert u.flat == flat and u.terms != {}


def _gamma_terms(rng, m):
    """A nested term map: monomials with negative exponents, coefficients
    with gamma tuples of length 2m, rationals of both signs."""
    gammas = [()] + [tuple(rng.randint(-1, 1) for _ in range(2 * m)) for _ in range(2)]
    return accumulate({}, [
        ((tuple(rng.randint(-1, 0) for _ in range(m)), tuple(rng.randint(0, 1) for _ in range(m))),
         {(rng.randint(-1, 0), g if any(g) else ()): rng.choice((1, -1, 2, Fraction(-1, 2)))})
        for g in (rng.choice(gammas) for _ in range(rng.randint(1, 6)))])


def _absolute(e):
    """e with every rational replaced by its absolute value: its products
    cancel nothing."""
    terms = {k: {t: abs(v) for t, v in c.items()} for k, c in e.terms.items()}
    return QTorusElement(e.m, e.D, terms)


def test_flat_product_matches_the_nested_product():
    rng = random.Random(21)
    cancelled = 0
    for _ in range(150):
        m = rng.randint(1, 3)
        D = tuple(rng.randint(1, 3) for _ in range(m))
        tu, tv = _gamma_terms(rng, m), _gamma_terms(rng, m)
        if rng.random() < 0.5:  # (1 + t)(1 - t): the cross terms cancel
            tu = accumulate({((0,) * m, (0,) * m): {(0, ()): 1}}, tu.items())
            tv = {k: c if not any(k[0] + k[1]) else coeff_mul(c, coeff_qpow(0, -1))
                  for k, c in tu.items()}
        u, v = QTorusElement(m, D, tu), QTorusElement(m, D, tv)
        expected = nested_product(u, v)
        prod = u * v
        assert prod.terms == expected and prod == QTorusElement(m, D, expected)
        cancelled += len(prod.flat) < len((_absolute(u) * _absolute(v)).flat)
        for terms, e in ((tu, u), (tv, v), (expected, prod)):
            assert e.terms == terms
            assert QTorusElement(m, D, e.terms) == e
            assert e.to_json() == nested_to_json(m, D, terms)
    assert cancelled > 50


def test_coeff_from_json_adds_repeated_terms():
    # terms with equal (q, gamma) add up, and a sum of 0 is dropped, as in accumulate
    t = {"q": 1, "gamma": [0, 2], "num": 1, "den": 2}
    assert coeff_from_json([t, t]) == {(1, (0, 2)): 1}
    assert type(coeff_from_json([t, t])[1, (0, 2)]) is int
    assert coeff_from_json([t, dict(t, num=-1)]) == {}
    assert coeff_from_json([t, dict(t, q=0), t]) == {(1, (0, 2)): 1, (0, (0, 2)): Fraction(1, 2)}
    assert coeff_from_json([dict(t, gamma=[0, 0]), dict(t, gamma=[])]) == {(1, ()): 1}


def test_elements_are_unhashable():
    # __eq__ without __hash__: an element's terms are mutable
    with pytest.raises(TypeError):
        hash(QTorusElement.one(1, (1,)))


# ---------------------------------------------------------------------------
# packed keys: exact at the guard and past it

G = qtorus.GUARD


def _oracle_product(u, v):
    """u * v by the tuple-key product of the tests, as a tuple-key flat map."""
    return tuple_mul_into({}, tuple_flat(u), tuple_flat(v), u.D)


def _monomial_power(m, D, a, b, e, c, k):
    """(c q^e x^a y^b)^k in closed form: the q-exponent gains
    -(k(k-1)/2) b^T D a from moving every y^b past the later x^a."""
    bDa = sum(x * d * y for x, d, y in zip(b, D, a))
    return {(tuple(k * x for x in a), tuple(k * y for y in b), k * e - k * (k - 1) // 2 * bDa, ()):
            c ** k}


@pytest.mark.parametrize("k", [2 ** G - 1, 2 ** G, 2 ** G + 1, 3 * 2 ** G, 10 ** 6])
def test_monomial_powers_at_and_past_the_guard(k):
    D = (1, 2, 1)
    a, b = (1, 0, -1), (0, 1, 1)
    u = mono(3, D, a, b, qexp=1, c=-2)
    power = u ** k
    assert tuple_flat(power) == _monomial_power(3, D, a, b, 1, -2, k)
    # b d fills the fields of B, so 2k leaves the guard first
    assert power.layout.guard == qtorus.guard_for(2 * k)
    assert (u.inverse() ** k) * power == QTorusElement.one(3, D)
    assert u ** -k == power.inverse()


def test_x11_powers_on_one_letter_word(A1):
    from qck import wiring
    x11, x21 = (wiring.minor_image(A1, (-1,), (i,), (1,)) for i in (1, 2))  # x and y
    for k in (2 ** G - 1, 2 ** G, 2 ** G + 1, 10 ** 6):
        p = x11 ** k * x21 ** (k + 1)
        assert p.terms == {((k,), (k + 1,)): {(0, ()): 1}}
        assert x21 ** (k + 1) * x11 ** k == scaled(p, coeff_qpow(-k * (k + 1)))


def test_multi_term_products_at_and_past_the_guard(A2):
    from qck import wiring
    word = (1, 2, 1, -1, -2)
    x12 = wiring.minor_image(A2, word, (1,), (2,))  # three terms
    unit = wiring.expression_image(A2, word, "x33 * minor(23|23)")  # x^(-1, ..., -1)
    for k in (2 ** G - 2, 2 ** G - 1, 2 ** G, 2 ** G + 1):
        big = unit ** k
        for u, v in ((big, x12), (x12, big), (big.inverse(), x12), (x12 * big, x12 * big.inverse()),
                     (x12 ** 3, big), (big * x12, big * x12)):
            assert tuple_flat(u * v) == _oracle_product(u, v)
    assert (x12 ** 5).terms == (x12 ** 2 * x12 ** 3).terms


def test_inverse_at_the_lower_edge_of_the_guard():
    D = (1, 3)
    low = QTorusElement.monomial(2, D, (-2 ** G, 0), (0, 0))  # -2^G is inside the guard
    assert low.layout.guard == G
    high = low.inverse()  # 2^G is not
    assert high.layout.guard == 2 * G
    assert high.terms == {((2 ** G, 0), (0, 0)): {(0, ()): 1}}
    assert low * high == high * low == QTorusElement.one(2, D)
    edge = QTorusElement.monomial(2, D, (3, -1), (0, -2 ** G // 3))  # b d = -2^G - 2
    assert edge.layout.guard == 2 * G and edge.inverse() * edge == QTorusElement.one(2, D)
    assert (low ** -1) == high and (high ** -2) == low ** 2


def test_long_words_and_the_empty_torus():
    rng = random.Random(31)
    for m in (40, 200):
        D = tuple(rng.choice((1, 2, 3)) for _ in range(m))
        u, v = (_random_element(rng, m, D, nterms=3, span=2) for _ in range(2))
        assert tuple_flat(u * v) == _oracle_product(u, v)
        assert (u * v) * u == u * (v * u)
    one = QTorusElement.one(0, ())
    two = QTorusElement(0, (), {((), ()): {(1, ()): 2}})
    assert tuple_flat(two * two) == {((), (), 2, ()): 4}
    assert two ** -3 == (two ** 3).inverse() and two * two.inverse() == one
    assert one.to_json() == {"m": 0, "D": [], "terms": [{"a": [], "b": [], "coeff": [
        {"q": 0, "gamma": [], "num": 1, "den": 1}]}]}
    assert two.as_unit() == (((), ()), {(1, ()): 2}) and two.supp_x() == {()}


def _sweep_element(rng, m, D, span):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        a = tuple(rng.randint(-span, span) for _ in range(m))
        b = tuple(rng.randint(-span, span) for _ in range(m))
        g = tuple(rng.randint(-1, 1) for _ in range(2))
        accumulate(terms, [((a, b), {(rng.randint(-3, 3), g if any(g) else ()):
                                     rng.choice((1, -1, 2, Fraction(-3, 2)))})])
    return QTorusElement(m, D, terms)


def _flat_sum(f1, f2):
    out = dict(f1)
    for key, v in f2.items():
        out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


def test_products_match_the_tuple_oracle_on_a_seeded_sweep():
    rng = random.Random(32)
    widened = 0
    for _ in range(400):
        m = rng.randint(0, 6)
        D = tuple(rng.choice((1, 2, 3, -1, -2)) for _ in range(m))
        span = rng.choice((2, 2 ** (G - 1), 2 ** G // 3, 2 ** G + 5, 10 ** 30))
        u, v = _sweep_element(rng, m, D, span), _sweep_element(rng, m, D, 2)
        for x, y in ((u, v), (v, u), (u, u)):
            prod = x * y
            assert tuple_flat(prod) == _oracle_product(x, y)
            widened += prod.layout.guard > max(x.layout.guard, y.layout.guard)
        assert tuple_flat(u + v) == _flat_sum(tuple_flat(u), tuple_flat(v))
    assert widened > 50


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 31, 64])
def test_the_dot_product_is_exact_at_the_corners_of_the_guard(m):
    # every field of B and A' at the guard's ends, |b_k d_k a'_k| about 2^(2G)
    # in all m terms, while the sums a + a' and b + b' stay inside the guard
    lo, hi = -2 ** G, 2 ** G - 1
    for D in ((1,) * m, (2,) * m):
        u = QTorusElement.monomial(m, D, (lo,) * m, (lo // D[0],) * m)
        v = QTorusElement.monomial(m, D, (hi,) * m, (hi // D[0],) * m)
        for x, y in ((u, v), (v, u)):
            prod = x * y
            assert tuple_flat(prod) == _oracle_product(x, y)
            assert prod.layout.guard == G


def test_a_raw_product_past_the_guard_raises():
    u = QTorusElement.monomial(2, (1, 1), (2 ** G - 1, 0), (0, 0))
    with pytest.raises(qtorus.GuardExceeded):
        qtorus.mul_into({}, u.flat, u.flat, u.layout)
    assert issubclass(qtorus.GuardExceeded, intlinalg.CrossCheckFailed)
    assert tuple_flat(u * u) == {((2 ** G * 2 - 2, 0), (0, 0), 0, ()): 1}


def test_json_lists_terms_in_tuple_order_not_integer_order():
    # packed, a = (1, 0) is 1 and a = (0, 1) is 2^W, but (0, 1) < (1, 0)
    D = (1, 1)
    u = mono(2, D, (1, 0), (0, 0)) + mono(2, D, (0, 1), (0, 0), c=3)
    low, high = sorted(A for A, _B, _e, _g in u.flat)
    assert (low, high) == (1, 1 << u.layout.width)
    assert [t["a"] for t in u.to_json()["terms"]] == [[0, 1], [1, 0]]
    assert repr(u) == "(3)*(1 | x2) + (x1 | 1)"
    v = mono(2, D, (0, 0), (1, 0)) + mono(2, D, (0, 0), (0, 1))  # B holds b reversed
    assert [t["b"] for t in v.to_json()["terms"]] == [[0, 1], [1, 0]]


def test_a_zero_diagonal_entry_is_refused():
    with pytest.raises(ValueError, match="entry 0"):
        QTorusElement(2, (1, 0))
