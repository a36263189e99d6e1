import random
from fractions import Fraction

import pytest

from conftest import ball_tensor_relations, ball_typical_relations, coeff_shift, random_double_word
from qck import slq2_tensor as sq
from qck import weyl, wiring
from qck.qtorus import QTorusElement, coeff_mul, coeff_qpow


def test_typical_action_examples():
    mm = sq.TypicalModuleSpec(kind="Mminus")
    assert sq.typical_action(mm, "x21", 3) == [(3, {(3, (1, 0)): 1})]
    assert sq.typical_action(mm, "x12", 3) == []

    hw = sq.TypicalModuleSpec(kind="HighestWeight")
    assert sq.typical_action(hw, "x11", 0) == []
    assert sq.typical_action(hw, "x11", 2) == [(1, {(0, ()): 1, (4, ()): -1})]

    la = sq.TypicalModuleSpec(kind="Laurent")
    # x11 e_1 = (1 + gamma eta q) e_0
    assert sq.typical_action(la, "x11", 1) == [(0, {(0, ()): 1, (1, (1, 1)): 1})]


def test_index_domains():
    hw = sq.TypicalModuleSpec(kind="HighestWeight")
    with pytest.raises(sq.IndexOutOfDomain):
        sq.typical_action(hw, "x22", -1)
    lw = sq.TypicalModuleSpec(kind="LowestWeight")
    assert sq.typical_action(lw, "x22", 0) == []
    with pytest.raises(sq.IndexOutOfDomain):
        sq.typical_action(lw, "x11", 1)


@pytest.mark.parametrize("kind", sq.KINDS)
def test_typical_relations_formal(kind):
    rep = sq.verify_typical_relations(sq.TypicalModuleSpec(kind=kind), 20)
    assert rep["ok"], rep["failures"][:3]


@pytest.mark.parametrize("d", [1, 2])
def test_typical_relations_scaled_q(d):
    rep = sq.verify_typical_relations(sq.TypicalModuleSpec(kind="Laurent"), 8, d=d)
    assert rep["ok"]


@pytest.mark.parametrize("generator, factor, failing", [
    # x11 -> q x11 breaks the two relations with x11 on one side only
    ("x11", lambda z: coeff_qpow(1), lambda i: ["[x11, x22] commutator", "det_q = 1"]),
    # x12 e_i = eta q^{2i} e_i breaks both q-commutations of x12 with x11
    # and x22; the commutator and det_q see x12 only on e_i, so hold at i = 0
    ("x12", lambda z: z, lambda i: ["x11 x12 = q x12 x11", "x12 x22 = q x22 x12"]
     + (["[x11, x22] commutator", "det_q = 1"] if i else [])),
])
def test_corrupted_rank1_action_fails_the_named_relations(monkeypatch, generator, factor, failing):
    # factor(z) multiplies the action, z standing for q^i (Z q^i on the
    # formal e_{i0+i} of the check), so the corruption reaches the formal
    # check and the per-index oracle alike
    action = sq.typical_action

    def corrupted(spec, gen, i, d=1, formal=False):
        out = action(spec, gen, i, d=d, formal=formal)
        z = {(i, (0, 0, 1) if formal else ()): 1}
        return [(j, coeff_mul(c, factor(z))) for j, c in out] if gen == generator else out

    monkeypatch.setattr(sq, "typical_action", corrupted)
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
    action = sq.typical_action

    def counted(*args, **kwargs):
        calls.append(1)
        return action(*args, **kwargs)

    monkeypatch.setattr(sq, "typical_action", counted)
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


def test_monomial_action_examples(A1):
    mod = sq.TensorModule(A1, (-1, 1))
    assert mod.monomial_action(((1, 1), (0, 0)), mod.basis_vector((0, 0))) == {
        (-1, -1): {(0, ()): 1}
    }
    got = mod.monomial_action(((0, 0), (2, 0)), mod.basis_vector((5, 0)))
    assert got == {(5, 0): {(10, (2, 0)): 1}}
    assert mod.monomial_action(((0, 0), (0, 0)), mod.basis_vector((3, -4))) == {
        (3, -4): {(0, ()): 1}
    }


def test_monomial_action_specialized_parameters(A1):
    mod = sq.TensorModule(A1, (-1, 1), params=[{(0, ()): 3}, None])
    got = mod.monomial_action(((0, 0), (2, 1)), mod.basis_vector((1, 1)))
    assert got == {(1, 1): {(3, (0, 1)): 9}}


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
        lhs = mod.monomial_action((a, (0,) * m), mod.monomial_action(((0,) * m, b), v))
        rhs = mod.monomial_action(((0,) * m, b), mod.monomial_action((a, (0,) * m), v))
        e = sum(x * d * y for x, d, y in zip(a, mod.D, b))
        rhs = {k: coeff_mul(c, coeff_qpow(e)) for k, c in rhs.items()}
        assert lhs == rhs


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
    assert len(out) == 3  # one basis term per image monomial


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
        (A2, (), 2, None), (A2, (), -1, None), (A2, (1,), -1, None),
        (A1, (-1, 1), 0, specialised), (A2, (-1, 2), 3, [{(-3, ()): 1}, None]),
    ):
        rep = sq.verify_tensor_relations(datum, word, N, params=params)
        assert rep == ball_tensor_relations(datum, word, N, params=params), (word, N)


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
    action = sq.TensorModule.element_action

    def counted(self, u, vec):
        calls.append(1)
        return action(self, u, vec)

    monkeypatch.setattr(sq.TensorModule, "element_action", counted)
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
    """Write a new entry into every coefficient of the given vectors."""
    for vec in vectors:
        for c in vec.values():
            c[(99, ())] = 7


def _owns_its_coefficients(op, make_operands):
    """op's result shares no coefficient with its operands, either way."""
    import copy

    operands = make_operands()
    result = op(*operands)
    assert result
    before = copy.deepcopy(result)
    _scribble(*operands)
    assert result == before
    operands = make_operands()
    saved = copy.deepcopy(operands)
    _scribble(op(*operands))
    assert operands == saved


def test_module_vectors_own_their_coefficients(A1):
    mod = sq.TensorModule(A1, (-1, 1))
    g = wiring.generator_images(A1, (-1, 1))
    spec = sq.TypicalModuleSpec(kind="Laurent")

    def vectors():
        return ({0: {(0, ()): 1}, 1: {(1, (1, 0)): 2}}, {1: {(0, ()): 3}, 2: {(2, ()): -1}})

    def module_vector():
        return ({(0, 0): {(0, ()): 1}, (1, -1): {(1, (1, 0)): 2}},)

    one, q = coeff_qpow(0), coeff_qpow(1)
    _owns_its_coefficients(  # v1 - q v2, acting on the two vectors by lookup
        lambda v1, v2: wiring.relation_difference([(one, "a")], [(q, "b")], {"a": v1, "b": v2}.get),
        vectors)
    _owns_its_coefficients(lambda v: sq.apply_generator(spec, "x21", v),
                           lambda: vectors()[:1])
    _owns_its_coefficients(lambda v: mod.element_action(g[(1, 1)], v), module_vector)
    _owns_its_coefficients(lambda v: mod.element_action(g[(2, 2)], v), module_vector)


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
    assert mod.basis_vector((1, 2), {(1, (0, 1)): 2}) == {(1, 2): {(1, (0, 1)): 2}}
    assert mod.basis_vector((1, 2), {}) == {}
    for n in ((0,), (0, 0, 0)):
        with pytest.raises(ValueError, match="length"):
            mod.basis_vector(n)
    with pytest.raises(ValueError, match="2 gamma exponents"):
        mod.basis_vector((0, 0), {(0, (1,)): 1})
