import functools
import itertools
import random
from fractions import Fraction

import pytest

from operator import mul

import conftest
from conftest import (
    accumulate,
    ball_tensor_relations,
    ball_typical_relations,
    coeff_shift,
    flat_vector,
    nested_apply_generator,
    nested_element_action,
    nested_nonzero_at,
    nested_relation_difference,
    nested_word_action,
    pack_flat,
    pack_vector,
    random_double_word,
    scaled,
    typical_action,
    unpack_flat,
    unpack_vector,
)
from qck import slq2_tensor as sq
from qck import qtorus, weyl, wiring
from qck.qtorus import QTorusElement, coeff_invert, coeff_mul, coeff_qpow, group_coefficients


def _image_action(spec, ij, vec, d=1):
    """The image of x_ij in typical_images acting on the nested rank-1
    vector vec = {i: coefficient}, gamma and eta in two gamma slots as in
    the oracle typical_action; the result is such a nested vector."""
    P = qtorus.layout(1)
    flat = {(qtorus.pack((i,), P), e, g + (0,) if g else ()): v
            for i, c in vec.items() for (e, g), v in c.items()}
    image = sq.with_gamma(sq.typical_images(spec, d)[ij], (d,), [coeff_qpow(0)], P)
    out = unpack_vector(sq.torus_action({}, image, flat, P), P)
    return {i: c for ((i,),), c in group_coefficients({(n, e, g[:2]): v
                                                     for (n, e, g), v in out.items()}).items()}


def test_typical_action_examples():
    mm = sq.TypicalModuleSpec(kind="Mminus")
    assert _image_action(mm, (2, 1), {3: coeff_qpow(0)}) == {3: {(3, (1, 0)): 1}}
    assert _image_action(mm, (1, 2), {3: coeff_qpow(0)}) == {}

    hw = sq.TypicalModuleSpec(kind="HighestWeight")
    assert _image_action(hw, (1, 1), {0: coeff_qpow(0)}) == {}
    assert _image_action(hw, (1, 1), {2: coeff_qpow(0)}) == {1: {(0, ()): 1, (4, ()): -1}}

    la = sq.TypicalModuleSpec(kind="Laurent")
    # x11 e_1 = (1 + gamma eta q) e_0
    assert _image_action(la, (1, 1), {1: coeff_qpow(0)}) == {0: {(0, ()): 1, (1, (1, 1)): 1}}
    # the images themselves, gamma and eta in slots 0 and 1 of three
    assert unpack_flat(sq.typical_images(la, 2)[(1, 1)], (2,)) == {
        ((1,), (0,), 0, ()): 1, ((1,), (2,), -2, (1, 1, 0)): 1}
    lw = sq.TypicalModuleSpec("LowestWeight", gamma={(1, ()): 2})
    assert unpack_flat(sq.typical_images(lw)[(2, 1)], (1,)) == {((0,), (1,), -2, ()): Fraction(-1, 2)}


def test_index_domains():
    # the images never lead out of the domain; the oracle refuses to leave it
    hw = sq.TypicalModuleSpec(kind="HighestWeight")
    assert _image_action(hw, (1, 1), {0: coeff_qpow(0)}) == {}
    with pytest.raises(IndexError, match="outside the domain"):
        typical_action(hw, "x22", -1)
    lw = sq.TypicalModuleSpec(kind="LowestWeight")
    assert _image_action(lw, (2, 2), {0: coeff_qpow(0)}) == {}
    assert typical_action(lw, "x22", 0) == []
    with pytest.raises(IndexError, match="outside the domain"):
        typical_action(lw, "x11", 1)


@pytest.mark.parametrize("kind", sq.KINDS)
def test_typical_relations_formal(kind):
    rep = sq.verify_typical_relations(sq.TypicalModuleSpec(kind=kind), 20)
    assert rep["ok"], rep["failures"][:3]


def test_typical_relations_refuse_d_zero():
    # x y = q^0 y x is no quantum torus, and a packed b d would lose b
    with pytest.raises(ValueError, match="d != 0"):
        sq.verify_typical_relations(sq.TypicalModuleSpec(kind="Mminus"), 2, d=0)


@pytest.mark.parametrize("d", [1, 2])
def test_typical_relations_scaled_q(d):
    rep = sq.verify_typical_relations(sq.TypicalModuleSpec(kind="Laurent"), 8, d=d)
    assert rep["ok"]


@pytest.mark.parametrize("generator, factor, failing", [
    # x11 -> q x11 breaks the two relations with x11 on one side only
    ("x11", lambda: (1, 0), lambda i: ["[x11, x22] commutator", "det_q = 1"]),
    # x12 e_i = eta q^{2i} e_i breaks both q-commutations of x12 with x11
    # and x22; the commutator and det_q see x12 only on e_i, so hold at i = 0
    ("x12", lambda: (0, 1), lambda i: ["x11 x12 = q x12 x11", "x12 x22 = q x22 x12"]
     + (["[x11, x22] commutator", "det_q = 1"] if i else [])),
])
def test_corrupted_rank1_action_fails_the_named_relations(monkeypatch, generator, factor, failing):
    # factor() = (s, t): the image of the generator is multiplied on the
    # right by q^s y^t, and the oracle's action on e_i by q^{s + t i}, so
    # the corruption reaches the formal check and the per-index oracle alike
    s, t = factor()
    images, action = sq.typical_images, typical_action
    label = (int(generator[1]), int(generator[2]))

    def corrupted_images(spec, d=1):
        out = images(spec, d)
        out[label] = pack_flat({(a, (b + t,), e + s, g): v
                                for (a, (b,), e, g), v in unpack_flat(out[label], (d,)).items()}, (d,))
        return out

    def corrupted_action(spec, gen, i, d=1):
        out = action(spec, gen, i, d=d)
        return [(j, coeff_mul(c, coeff_qpow(s + t * i))) for j, c in out] if gen == generator else out

    monkeypatch.setattr(sq, "typical_images", corrupted_images)
    monkeypatch.setattr(conftest, "typical_action", corrupted_action)
    spec = sq.TypicalModuleSpec(kind="Laurent")
    rep = sq.verify_typical_relations(spec, 2)
    assert rep["failures"] == [(name, i) for i in range(-2, 3) for name in failing(i)]
    assert rep == ball_typical_relations(spec, 2)


def _rank1_cases():
    """(spec, d, N) over the five kinds with formal, specialised and mixed
    parameters, the excluded Laurent values gamma eta = -q^{2k+1} for
    k = -5..5, and legal values next to them."""
    params = [(None, None), ({(1, ()): 2}, {(-2, ()): Fraction(1, 3)}),
              ({(0, ()): -1}, None), (None, {(3, ()): 5})]
    specs = [sq.TypicalModuleSpec(kind, gamma, eta) for kind in sq.KINDS for gamma, eta in params]
    for k in range(-5, 6):
        a = k % 3  # how the q-power is split between gamma and eta
        for v, shift in ((-1, 0), (1, 0), (-2, 0), (-1, 1)):  # excluded, then near misses
            specs.append(sq.TypicalModuleSpec("Laurent", {(a, ()): v},
                                              {(2 * k + 1 - a + shift, ()): 1}))
    return [(spec, d, N) for spec in specs for d in (1, 2, 3) for N in (0, 1, 2, 5, 20)]


def test_formal_rank1_check_agrees_with_per_index_oracle():
    excluded = 0
    for spec, d, N in _rank1_cases():
        rep = sq.verify_typical_relations(spec, N, d=d)
        assert rep == ball_typical_relations(spec, N, d=d), (spec, d, N)
        excluded += not rep["ok"]
    assert excluded > 0


def test_formal_rank1_check_work_does_not_grow_with_N(monkeypatch):
    calls = []
    action = sq.torus_action

    def counted(*args, **kwargs):
        calls.append(1)
        return action(*args, **kwargs)

    monkeypatch.setattr(sq, "torus_action", counted)
    for kind in sq.KINDS:
        counts = []
        for N in (1, 20):
            calls.clear()
            assert sq.verify_typical_relations(sq.TypicalModuleSpec(kind=kind), N)["ok"]
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0, kind


def test_laurent_illegal_specialization_detected():
    # gamma * eta = -q, the k = 0 excluded value: flagged at index 0
    bad = sq.TypicalModuleSpec(kind="Laurent", gamma={(1, ()): -1}, eta={(0, ()): 1})
    rep = sq.verify_typical_relations(bad, 20)
    assert not rep["ok"]
    assert ("laurent coefficient 1 + gamma eta q^{2i-1} vanishes", 0) in rep["failures"]
    # gamma * eta = -q^5 fails at index -2
    bad2 = sq.TypicalModuleSpec(kind="Laurent", gamma={(5, ()): -1}, eta={(0, ()): 1})
    rep2 = sq.verify_typical_relations(bad2, 20)
    assert ("laurent coefficient 1 + gamma eta q^{2i-1} vanishes", -2) in rep2["failures"]


def test_laurent_legal_specializations_pass():
    # gamma*eta = 2 q^3 (not -q^odd) and q^2 (even power)
    for gamma, eta in [({(0, ()): 2}, {(3, ()): 1}), ({(1, ()): 1}, {(1, ()): 1})]:
        spec = sq.TypicalModuleSpec(kind="Laurent", gamma=gamma, eta=eta)
        assert sq.verify_typical_relations(spec, 12)["ok"]


def _monomial_action(mod, a, b, vec):
    return mod.element_action(QTorusElement.monomial(mod.m, mod.D, a, b), vec)


def test_monomial_action_examples(A1):
    mod = sq.TensorModule(A1, (-1, 1))
    assert _monomial_action(mod, (1, 1), (0, 0), mod.basis_vector((0, 0))) == {((-1, -1), 0, ()): 1}
    got = _monomial_action(mod, (0, 0), (2, 0), mod.basis_vector((5, 0)))
    assert got == {((5, 0), 10, (2, 0)): 1}
    assert _monomial_action(mod, (0, 0), (0, 0), mod.basis_vector((3, -4))) == {((3, -4), 0, ()): 1}


def test_monomial_action_specialized_parameters(A1):
    mod = sq.TensorModule(A1, (-1, 1), params=[{(0, ()): 3}, None])
    got = _monomial_action(mod, (0, 0), (2, 1), mod.basis_vector((1, 1)))
    assert got == {((1, 1), 3, (0, 1)): 9}


def test_action_q_commute_operator_identity(A2):
    # x^a then y^b differs from y^b then x^a by exactly q^{a^T D b}
    rng = random.Random(3)
    for _ in range(20):
        word = random_double_word(A2, rng, 4)
        if not word:
            continue
        m = len(word)
        mod = sq.TensorModule(A2, word)
        a = tuple(rng.randint(-2, 2) for _ in range(m))
        b = tuple(rng.randint(-2, 2) for _ in range(m))
        n = tuple(rng.randint(-3, 3) for _ in range(m))
        v = mod.basis_vector(n)
        zero = (0,) * m
        lhs = _monomial_action(mod, a, zero, _monomial_action(mod, zero, b, v))
        rhs = _monomial_action(mod, zero, b, _monomial_action(mod, a, zero, v))
        e = sum(x * d * y for x, d, y in zip(a, mod.D, b))
        assert lhs == {(k, qe + e, g): c for (k, qe, g), c in rhs.items()}


def test_element_action_is_multiplicative(A2):
    rng = random.Random(10)
    for _ in range(10):
        word = random_double_word(A2, rng, 4)
        if not word:
            continue
        mod = sq.TensorModule(A2, word)
        u = wiring.minor_image(A2, word, (1,), (2,))
        v = wiring.minor_image(A2, word, (2,), (1,))
        n = tuple(rng.randint(-2, 2) for _ in range(len(word)))
        vec = mod.basis_vector(n)
        assert mod.element_action(u * v, vec) == mod.element_action(
            u, mod.element_action(v, vec)
        )


def test_unit_action_invertible(A2):
    word = (1, 2, 1, -1, -2)
    mod = sq.TensorModule(A2, word)
    u = wiring.expression_image(A2, word, "x33 * minor(23|23)")
    vec = mod.basis_vector((0, 0, 0, 0, 0))
    out = mod.element_action(u, vec)
    back = mod.element_action(u.inverse(), out)
    assert back == vec


def test_zero_element_acts_as_zero(A1):
    from qck.qtorus import QTorusElement

    mod = sq.TensorModule(A1, (-1, 1))
    z = QTorusElement(2, (1, 1))
    assert mod.element_action(z, mod.basis_vector((0, 0))) == {}


def test_reference_word_action_three_terms(A2):
    word = (1, 2, 1, -1, -2)
    mod = sq.TensorModule(A2, word)
    img = wiring.minor_image(A2, word, (1,), (2,))
    out = mod.element_action(img, mod.basis_vector((0,) * 5))
    assert len(group_coefficients(out)) == 3  # one basis term per image monomial


def test_tensor_relations_small(A1, A2):
    rep = sq.verify_tensor_relations(A1, (-1, 1), 2)
    assert rep["ok"]
    rep = sq.verify_tensor_relations(A2, (-1, 2), 2)
    assert rep["ok"]
    rep = sq.verify_tensor_relations(A2, (1, 2, 1, -1), 1)
    assert rep["ok"]


def test_tensor_relations_specialized_parameters(A1, A2):
    # exact rational * q-power specializations of the factor parameters
    rep = sq.verify_tensor_relations(A1, (-1, 1), 2, params=[{(1, ()): 2}, {(0, ()): -1}])
    assert rep["ok"]
    rep = sq.verify_tensor_relations(A2, (-1, 2), 2, params=[{(-3, ()): 1}, None])
    assert rep["ok"]


def test_formal_check_agrees_with_ball_oracle(A1, A2, A3):
    # every rank-1 and rank-2 double word of length <= 3 at N = 2, plus a
    # seeded sample of length-4 words in ranks 2 and 3 at N = 1
    cases = [(datum, word, 2) for datum in (A1, A2) for word in weyl.all_double_words(datum, 3)]
    rng = random.Random(5)
    for datum in (A2, A3):
        words = [w for w in weyl.all_double_words(datum, 4) if len(w) == 4]
        cases += [(datum, word, 1) for word in rng.sample(words, 2)]
    for datum, word, N in cases:
        rep = sq.verify_tensor_relations(datum, word, N)
        assert rep == ball_tensor_relations(datum, word, N), word
        assert rep["ok"] and rep["checked"] == (2 * N + 1) ** len(word)


def test_formal_check_edge_truncations(A1, A2):
    specialised = [{(1, ()): 2}, {(0, ()): -1}]
    for datum, word, N, params in (
        (A2, (), 2, None), (A2, (), 0, None), (A2, (1,), 0, None),
        (A1, (-1, 1), 0, specialised), (A2, (-1, 2), 3, [{(-3, ()): 1}, None]),
    ):
        rep = sq.verify_tensor_relations(datum, word, N, params=params)
        assert rep == ball_tensor_relations(datum, word, N, params=params), (word, N)


def test_a_negative_truncation_is_refused(A2):
    # gamma eta = -q fails at i = 0, so a run that checked nothing would hide it
    spec = sq.TypicalModuleSpec("Laurent", gamma={(1, ()): -1}, eta={(0, ()): 1})
    assert not sq.verify_typical_relations(spec, 3)["ok"]
    with pytest.raises(ValueError, match="N = -3"):
        sq.verify_typical_relations(spec, -3)
    for word in ((-1, 2), (), (1,)):
        with pytest.raises(ValueError, match="N = -1"):
            sq.verify_tensor_relations(A2, word, -1)


@pytest.mark.parametrize("kind", sq.KINDS)
def test_doubling_row_one_fails_only_the_constant_term_of_det_q(monkeypatch, A2, kind):
    # every q-commutation and commutator is homogeneous in row 1 and each
    # det_q term has one row-1 letter, so only det_q = 1 sees the factor 2
    images, generators, tensor_images = sq.typical_images, wiring._generators, wiring.generator_images

    def doubled(g):
        return {ij: {k: 2 * v for k, v in u.items()} if ij[0] == 1 else u for ij, u in g.items()}

    def doubled_elements(g):
        return {ij: scaled(u, coeff_qpow(0, 2)) if ij[0] == 1 else u for ij, u in g.items()}

    monkeypatch.setattr(sq, "typical_images", lambda spec, d=1: doubled(images(spec, d)))
    spec = sq.TypicalModuleSpec(kind=kind)
    rep = sq.verify_typical_relations(spec, 3)
    assert rep["failures"] == [("det_q = 1", i) for i in _domain(spec, 3)]
    monkeypatch.setattr(wiring, "generator_images", lambda *args: doubled_elements(tensor_images(*args)))
    rep = sq.verify_tensor_relations(A2, (1, 2, -1), 1)
    ball = itertools.product(range(-1, 2), repeat=3)
    assert rep["failures"] == [("det_q = 1", n) for n in itertools.islice(ball, 20)]
    # the torus suite's det_q reads the full minor's path family, not the images
    monkeypatch.setattr(wiring, "_generators", lambda *args: doubled_elements(generators(*args)))
    assert all(ok for _name, ok in wiring.verify_relations(A2, (1, 2, -1)))


def _corrupt(label, how):
    """wiring.generator_images with the image of x_label corrupted."""
    images = wiring.generator_images

    def corrupted(datum, word):
        g = images(datum, word)
        u = g[label]
        if how == "q":  # x11 -> q x11
            g[label] = QTorusElement(u.m, u.D, {k: coeff_shift(c, 1) for k, c in u.terms.items()})
        elif how == "y":  # y -> y + y^2 in every monomial
            terms = dict(u.terms)
            for (a, b), c in u.terms.items():
                if any(b):
                    terms[(a, tuple(2 * x for x in b))] = c
            g[label] = QTorusElement(u.m, u.D, terms)
        else:  # u -> u + u (y_2 - q^{-2}), which vanishes on part of the ball
            z = (0,) * u.m
            y2 = QTorusElement.monomial(u.m, u.D, z, (0, 1) + z[2:])
            g[label] = u + u * (y2 + QTorusElement.monomial(u.m, u.D, z, z, {(-2, ()): -1}))
        return g

    return corrupted


@pytest.mark.parametrize(
    "rank, word, N, label, how, params",
    [
        (2, (1, 2, 1, -1), 1, (1, 1), "q", None),
        (2, (1, 2, 1, -1), 1, (1, 2), "y", None),
        (2, (-1, 2, 1), 1, (2, 2), "y", None),
        (3, (-2, 3), 1, (1, 1), "q", None),
        (1, (-1, 1), 3, (2, 2), "vanishing", [{(0, ()): 1}, {(0, ()): 1}]),
    ],
)
def test_corrupted_images_fail_like_the_oracle(monkeypatch, rank, word, N, label, how, params):
    datum = weyl.type_a(rank)
    monkeypatch.setattr(wiring, "generator_images", _corrupt(label, how))
    rep = sq.verify_tensor_relations(datum, word, N, params=params)
    assert not rep["ok"] and rep["failures"]
    assert rep == ball_tensor_relations(datum, word, N, params=params)
    if how == "vanishing":  # the substitution decides per vector which relations fail
        per_n = {}
        for name, n in rep["failures"]:
            per_n.setdefault(n, set()).add(name)
        assert len({frozenset(names) for names in per_n.values()}) > 1


def test_formal_check_work_does_not_grow_with_N(monkeypatch, A2):
    calls = []
    action = sq.torus_action

    def counted(*args, **kwargs):
        calls.append(1)
        return action(*args, **kwargs)

    monkeypatch.setattr(sq, "torus_action", counted)
    counts = []
    for N in (1, 6):
        calls.clear()
        assert sq.verify_tensor_relations(A2, (1, 2, 1, -1), N)["ok"]
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_tensor_module_rejects_non_type_a():
    B2 = weyl.RootDatum(n=2, cartan=((2, -2), (-1, 2)), d=(1, 2))
    with pytest.raises(ValueError, match="type-A"):
        sq.TensorModule(B2, (1, 2))
    with pytest.raises(ValueError, match="type-A"):
        sq.verify_tensor_relations(B2, (1, 2), 1)


def _scribble(*vectors):
    """Overwrite every value of the given flat vectors and add a term."""
    for vec in vectors:
        vec.update(dict.fromkeys(vec, 7))
        vec[99, 0, ()] = 7


def _owns_its_terms(op, make_operands):
    """op's result shares no map with its operands, either way."""
    operands = make_operands()
    result = op(*operands)
    assert result
    before = dict(result)
    _scribble(*operands)
    assert result == before
    operands = make_operands()
    saved = [dict(v) for v in operands]
    _scribble(op(*operands))
    assert list(operands) == saved


def test_module_vectors_own_their_coefficients(A1):
    mod = sq.TensorModule(A1, (-1, 1))
    g = wiring.generator_images(A1, (-1, 1))
    P1, P = qtorus.layout(1), g[1, 1].layout
    images = {ij: sq.with_gamma(flat, (1,), [coeff_qpow(0)], P1)
              for ij, flat in sq.typical_images(sq.TypicalModuleSpec(kind="Laurent")).items()}
    rank1 = functools.partial(sq.torus_action, P=P1)
    tensor = functools.partial(sq.torus_action, P=P)

    def vectors():  # one factor: a packed index is the index itself
        return ({(0, 0, ()): 1, (1, 1, (1, 0, 0)): 2}, {(1, 0, ()): 3, (2, 2, ()): -1})

    def module_vector():
        return ({((0, 0), 0, ()): 1, ((1, -1), 1, (1, 0)): 2},)

    _owns_its_terms(lambda v: rank1({}, images[2, 1], v), lambda: vectors()[:1])
    for u in (g[(1, 1)], g[(2, 2)], QTorusElement.one(2, mod.D)):
        _owns_its_terms(lambda v: mod.element_action(u, v), module_vector)
    # a + 1 - q b a acting on start: an empty word, and a suffix memoised
    # while a longer word reuses it
    one, q = coeff_qpow(0), coeff_qpow(1)
    rels = [("r", [(one, ("a",)), (one, ())], [(q, ("b", "a"))])]
    folded = {ij: sq.with_gamma(u.flat, mod.D, mod.params, P) for ij, u in g.items()}
    for apply_into, start, a, b in ((tensor, pack_vector(module_vector()[0], P), folded[1, 1],
                                     folded[2, 2]),
                                    (rank1, vectors()[0], images[1, 1], images[2, 1])):
        def evaluated(start, a, b):
            (_name, diff), = wiring.relation_differences(rels, {"a": a, "b": b}, start, apply_into)
            return diff

        _owns_its_terms(evaluated, lambda: (dict(start), dict(a), dict(b)))


@pytest.mark.parametrize("spec", [
    dict(kind="HighestWeight", eta={(0, ()): 0}),
    dict(kind="Laurent", gamma={(2, ()): 0}),
    dict(kind="Mminus", gamma={(0, ()): 1, (1, ()): 1}),
    dict(kind="Mplus", eta={(0, (1, 0)): 1}),
])
def test_typical_module_rejects_a_parameter_that_is_not_a_nonzero_q_monomial(spec):
    with pytest.raises(ValueError, match="nonzero rational times a power of q"):
        sq.TypicalModuleSpec(**spec)


def test_tensor_module_rejects_a_zero_parameter(A1):
    with pytest.raises(ValueError, match="parameter g2"):
        sq.TensorModule(A1, (-1, 1), params=[None, {(0, ()): 0}])
    with pytest.raises(ValueError, match="parameter g1"):
        sq.verify_tensor_relations(A1, (-1, 1), 1, params=[{(1, ()): 0}, None])


def test_basis_vector_checks_index_and_gamma_lengths(A1):
    mod = sq.TensorModule(A1, (-1, 1))
    assert mod.basis_vector((1, 2), {(1, (0, 1)): 2}) == {((1, 2), 1, (0, 1)): 2}
    assert mod.basis_vector((1, 2), {}) == {}
    for n in ((0,), (0, 0, 0)):
        with pytest.raises(ValueError, match="length"):
            mod.basis_vector(n)
    with pytest.raises(ValueError, match="2 gamma exponents"):
        mod.basis_vector((0, 0), {(0, (1,)): 1})


def test_basis_vector_spells_an_all_zero_gamma_empty(A1):
    mod = sq.TensorModule(A1, (-1, 1))
    e0 = {((0, 0), 0, ()): 1}
    assert mod.basis_vector((0, 0), {(0, (0, 0)): 1}) == mod.basis_vector((0, 0)) == e0
    assert mod.basis_vector((0, 0), {(0, (0, 0)): 1, (0, ()): -1}) == {}


def _nested_vector(rng, index, nslots):
    """A nested vector {n: coefficient} of up to four terms: indices from
    index(), gammas () or of nslots slots, rationals of both signs."""
    vec = {}
    for _ in range(rng.randint(1, 4)):
        g = tuple(rng.randint(-1, 1) for _ in range(nslots))
        accumulate(vec, [(index(), {(rng.randint(-2, 2), g if any(g) else ()):
                                    rng.choice((1, -1, 2, Fraction(-1, 3)))})])
    return vec


def _random_coeff(rng, m):
    g = tuple(rng.randint(-1, 1) for _ in range(m))
    return {(rng.randint(-2, 2), g if any(g) else ()): rng.choice((1, -2, Fraction(3, 2)))}


def test_flat_tensor_action_matches_the_nested_action(A1, A2, A3):
    rng = random.Random(22)
    cancelled = 0
    for datum in (A1, A2, A3):
        words = [w for w in weyl.all_double_words(datum, 4) if w]
        for word in rng.sample(words, min(5, len(words))):
            m = len(word)
            g = list(wiring.generator_images(datum, word).values())
            specialised = [{(rng.randint(-2, 2), ()): rng.choice((2, -1, Fraction(1, 3)))}
                           for _ in range(m)]
            mixed = [p if rng.random() < 0.5 else None for p in specialised]
            for params in (None, specialised, mixed):
                mod = sq.TensorModule(datum, word, params=params)

                def index():
                    return tuple(rng.randint(-3, 3) for _ in range(m))

                for u in (rng.choice(g), rng.choice(g) * rng.choice(g)):
                    vec = _nested_vector(rng, index, m)
                    got = mod.element_action(u, flat_vector(vec))
                    assert got == flat_vector(nested_element_action(mod, u, vec))
                # u = t1 + t2 on e_n + c e_{n'}: t1 e_n and c t2 e_{n'} cancel
                (a1, b1), (a2, b2) = [(index(), index()) for _ in range(2)]
                if a1 == a2:
                    continue
                t1, t2 = (QTorusElement.monomial(m, mod.D, a, b, _random_coeff(rng, m))
                          for a, b in ((a1, b1), (a2, b2)))
                n = index()
                n2 = tuple(x - y + z for x, y, z in zip(n, a1, a2))
                (_, c1), = nested_element_action(mod, t1, {n: coeff_qpow(0)}).items()
                (_, c2), = nested_element_action(mod, t2, {n2: coeff_qpow(0)}).items()
                c = coeff_mul(coeff_qpow(0, -1), coeff_mul(c1, coeff_invert(c2)))
                vec = {n: coeff_qpow(0), n2: c}
                got = mod.element_action(t1 + t2, flat_vector(vec))
                assert got == flat_vector(nested_element_action(mod, t1 + t2, vec))
                assert len(group_coefficients(got)) == 2
                cancelled += 1
    assert cancelled > 20


def _domain(spec, N):
    """The indices of the kind's domain cut to [-N, N]."""
    lo, hi = spec.index_domain()
    return range(-N if lo is None else max(lo, -N), (N if hi is None else min(hi, N)) + 1)


def test_flat_rank1_action_matches_the_nested_action():
    # the images acting on vectors of several terms, against the oracle
    rng = random.Random(23)
    params = [(None, None), ({(1, ()): 2}, {(-2, ()): Fraction(1, 3)}), ({(0, ()): -1}, None)]
    for kind in sq.KINDS:
        for gamma, eta in params:
            spec = sq.TypicalModuleSpec(kind, gamma, eta)
            indices = list(_domain(spec, 3))
            for d in (1, 2):
                vec = _nested_vector(rng, lambda: rng.choice(indices), 2)
                for i, j in itertools.product((1, 2), repeat=2):
                    expected = nested_apply_generator(spec, f"x{i}{j}", vec, d=d)
                    assert _image_action(spec, (i, j), vec, d=d) == expected


def test_typical_images_act_like_the_basis_formulas():
    for spec, d, N in _rank1_cases():
        for i in _domain(spec, N):
            for gi, gj in itertools.product((1, 2), repeat=2):
                expected = accumulate({}, typical_action(spec, f"x{gi}{gj}", i, d=d))
                assert _image_action(spec, (gi, gj), {i: coeff_qpow(0)}, d=d) == expected


def test_flat_relation_difference_and_substitution_match_the_nested_ones(A1, A2):
    # the one evaluator on random images, one of them 0, against the nested
    # right-to-left walk on the n1 = 2 and n1 = 3 tables, det_q included
    rng = random.Random(24)
    nonzero = 0
    for datum, word in ((A1, (-1, 1)), (A2, (1, 2, -1))) * 3:
        m, labels = len(word), list(itertools.product(range(1, datum.n + 2), repeat=2))
        mod = sq.TensorModule(datum, word)
        images = {ij: QTorusElement(m, mod.D) for ij in labels}
        for ij in rng.sample(labels, len(labels) - 1):
            for _ in range(rng.randint(1, 3)):
                a, b = (tuple(rng.randint(-1, 1) for _ in range(m)) for _ in range(2))
                images[ij] += QTorusElement.monomial(m, mod.D, a, b, _random_coeff(rng, m))
        start = _nested_vector(rng, lambda: tuple(rng.randint(-2, 2) for _ in range(m)), m)
        d = rng.randint(1, 2)
        rels = wiring.quantum_matrix_relations(datum.n + 1)
        P = qtorus.layout(m)
        got = wiring.relation_differences(
            rels, {ij: sq.with_gamma(u.flat, mod.D, mod.params, P) for ij, u in images.items()},
            pack_vector(flat_vector(start), P), functools.partial(sq.torus_action, P=P), d)
        got = [(name, unpack_vector(diff, P)) for name, diff in got]
        act = nested_word_action(start, lambda ij, vec: nested_element_action(mod, images[ij], vec))
        assert got == [(name, flat_vector(nested_relation_difference(lhs, rhs, act, d=d)))
                       for name, lhs, rhs in rels]
        nonzero += sum(bool(diff) for _name, diff in got)
    assert nonzero > 20
    survived = cancelled = 0
    for _ in range(200):
        m = rng.randint(1, 3)
        zq = tuple(rng.randint(-2, 2) for _ in range(m))
        diff = _nested_vector(rng, lambda: tuple(rng.randint(-2, 2) for _ in range(m)), 2 * m)
        cancel = rng.random() < 0.5
        if cancel:  # each term meets a partner that takes it to 0 after the substitution
            partners = []
            for n, c in diff.items():
                for (e, g), v in c.items():
                    g = g or (0,) * (2 * m)
                    z = tuple(rng.randint(-1, 1) for _ in range(m))
                    e2 = e + sum(map(mul, g[m:], zq)) - sum(map(mul, z, zq))
                    partners.append((n, {(e2, g[:m] + z if any(g[:m] + z) else ()): -v}))
            accumulate(diff, partners)
        flat = flat_vector(diff)
        assert sq._nonzero_at(flat, zq) == nested_nonzero_at(diff, zq) == (not cancel)
        survived += not cancel
        cancelled += cancel and bool(diff)
    assert survived > 50 and cancelled > 50


def test_element_action_is_exact_past_the_packing_guard(A1):
    # indices and exponents at, across and far past the guard 2^G: the
    # action packs both operands wide enough, and widens while n - a leaves it
    G = qtorus.GUARD
    for params in (None, [{(1, ()): 2}, None]):
        mod = sq.TensorModule(A1, (-1, 1), params=params)
        u = (QTorusElement.monomial(2, mod.D, (-1, 1), (2 ** G, 1), {(1, ()): -3})
             + QTorusElement.monomial(2, mod.D, (2 ** G, 0), (0, -2 ** G - 1)))
        vec = {(2 ** G - 1, -2 ** G): coeff_qpow(0), (10 ** 20, 5): {(2, (0, 1)): Fraction(1, 2)},
               (0, 0): coeff_qpow(-1, 7)}
        got = mod.element_action(u, flat_vector(vec))
        assert got == flat_vector(nested_element_action(mod, u, vec))
        assert (4096, -4097) in {n for n, _e, _g in got}  # (4095, -4096) - (-1, 1)
