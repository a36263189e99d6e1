import random

import pytest

from conftest import (
    InvalidString,
    WeightString,
    constant_string,
    exponents,
    generator_strings,
    hermite_column_basis,
    invert_rational,
    lattice_cprime_multipliers,
    monomial_to_string,
    phi,
    phi_tilde,
    psi_matrices_by_apply_word,
    q_commute_index,
    random_double_word,
    results_by_cell,
    simplicity_record,
    skew_gram,
    split_cells,
    weyl_matrix,
    word_to_permutation,
)
from qck import appendix_congruence as ac
from qck import intlinalg, strings, weyl


def test_exponents_constant_string(A1):
    ws = constant_string((-1, 1), (1,))
    assert exponents(A1, ws) == ((1, 1), (0, 0))


def test_exponents_single_step(A1):
    ws = WeightString(word=(1,), start=(1,), steps=(1,))
    # matches the rank-one image of x_12 being y
    assert exponents(A1, ws) == ((0,), (1,))


def test_string_monomial_element(A1):
    # I(mu) = x^a y^b: the rank-one step string is y, the constant string x1 x2
    ws = WeightString(word=(1,), start=(1,), steps=(1,))
    assert exponents(A1, ws) == ((0,), (1,))
    const = constant_string((-1, 1), (1,))
    assert exponents(A1, const) == ((1, 1), (0, 0))


def test_exponents_generator_strings_match_phi(A2):
    word = (1, 2, 1, -1, -2)
    mats = strings._context(A2, word)
    gens = generator_strings(A2, word)
    n, m = A2.n, len(word)
    for idx, ws in enumerate(gens):
        a, b = exponents(A2, ws)
        col = [phi(mats)[r][idx] for r in range(2 * m)]
        assert list(a) + list(b) == col


def test_string_weights_and_end(A2):
    ws = WeightString(word=(1, -2), start=(0, 1), steps=(1, 2))
    mus = ws.weights(A2)
    assert mus[0] == (0, 1)
    alpha1, alpha2 = A2.simple_roots
    assert mus[1] == tuple(x - y for x, y in zip(mus[0], alpha1))
    assert mus[2] == tuple(x + 2 * y for x, y in zip(mus[1], alpha2))


def test_invalid_strings_rejected():
    with pytest.raises(InvalidString):
        WeightString(word=(1, 2), start=(0, 0), steps=(1,))
    with pytest.raises(InvalidString):
        WeightString(word=(1,), start=(0, 0), steps=(-1,))


def test_monomial_to_string_roundtrip(A1):
    ws = monomial_to_string(A1, (-1, 1), (1,), (1, 1), (0, 0))
    assert ws == constant_string((-1, 1), (1,))
    assert monomial_to_string(A1, (-1, 1), (1,), (0, 0), (0, 0)) is None
    got = monomial_to_string(A1, (1,), (1,), (0,), (1,))
    assert got == WeightString(word=(1,), start=(1,), steps=(1,))


def test_string_matrices_rank_one(A1):
    mats = strings._context(A1, (-1, 1))
    assert mats.Omega == [[1], [1]]
    assert mats.Lambda == [[1, 0], [2, -1]]
    assert mats.OmegaTilde == [[1], [1]]
    assert mats.H == [[0, 1, 1], [-1, 0, 2], [-1, -2, 0]]


def test_string_matrices_empty(A2):
    mats = strings._context(A2, ())
    assert mats.H == intlinalg.zeros(2, 2)
    assert phi(mats) == []
    assert mats.Omega == []


def test_string_matrices_rejects_non_reduced(A2):
    with pytest.raises(weyl.NonReducedWord):
        strings._context(A2, (1, 1))


def test_lambda_unimodular_and_h_skew(A3):
    rng = random.Random(8)
    from conftest import exact_det

    for _ in range(30):
        word = random_double_word(A3, rng, 6)
        mats = strings._context(A3, word)
        if len(word):
            assert abs(exact_det(mats.Lambda)) == 1
        assert intlinalg.is_skew_symmetric(mats.H)


def test_lambda_inverse_matches_fraction_inverse(A3):
    rng = random.Random(12)
    for datum in (A3, weyl.type_a(4)):
        for _ in range(25):
            word = random_double_word(datum, rng, 10)
            mats = strings._context(datum, word)
            inv = intlinalg.invert_unitriangular(mats.Lambda)
            assert inv == invert_rational(mats.Lambda)
            assert mats.LambdaInv == inv


def test_invariants_builds_string_matrices_once(monkeypatch, A3):
    calls = []
    real = intlinalg.invert_unitriangular

    def counting(L):
        calls.append(len(L))
        return real(L)

    monkeypatch.setattr(intlinalg, "invert_unitriangular", counting)
    for word in ((), (1, 2, -1), (1, 2, 1, 3, -2, -1)):
        calls.clear()
        strings.invariants(A3, word)
        strings.invariants(A3, word)  # the second call reads the memo
        assert calls == [len(word)]


def test_h_matches_q_commute_of_generator_strings(A2):
    word = (1, 2, 1, -1, -2)
    mats = strings._context(A2, word)
    gens = generator_strings(A2, word)
    monos = [exponents(A2, ws) for ws in gens]
    for i, mi in enumerate(monos):
        for j, mj in enumerate(monos):
            assert mats.H[i][j] == q_commute_index(mi, mj, mats.D)


@pytest.mark.parametrize(
    "word,expected",
    [
        ((-1, 1), dict(m=2, s=1, n_dim=3, d=1, k=0, rank_H=2)),
    ],
)
def test_invariants_rank_one(A1, word, expected):
    inv = strings.invariants(A1, word)
    for key, val in expected.items():
        assert getattr(inv, key) == val


def test_invariants_reference_word(A2):
    inv = strings.invariants(A2, (1, 2, 1, -1, -2))
    assert (inv.m, inv.s, inv.n_dim, inv.d, inv.k, inv.rank_H) == (5, 2, 7, 1, 1, 6)
    assert len(inv.multipliers) == 1


def test_invariants_empty(A2):
    inv = strings.invariants(A2, ())
    assert (inv.m, inv.s, inv.d, inv.k) == (0, 0, 2, 0)


def test_invariants_sweep_small(A1, A2):
    for datum, max_len in ((A1, 6), (A2, 5)):
        for word in weyl.all_double_words(datum, max_len):
            inv = strings.invariants(datum, word)  # cross-checks run inside
            assert inv.rank_H % 2 == 0
            assert len(inv.multipliers) == inv.k


def test_cprime_multipliers_examples(A1, A2, A3):
    assert strings.cprime_multipliers(A1, (-1, 1)) == []
    mult = strings.cprime_multipliers(A2, (1, 2, 1, -1, -2))
    assert len(mult) == 1
    # distinct letters force an empty list
    assert strings.cprime_multipliers(A3, (-1, 2, -3)) == []
    assert strings.cprime_multipliers(A3, (1, -2, 3)) == []


def test_cprime_multiplier_value_against_direct_lattice(A2):
    # independent route: the induced form on the annihilator computed from a
    # hand-built generator lattice for the reference word
    word = (1, 2, 1, -1, -2)
    mats = strings._context(A2, word)
    PhiTilde = phi_tilde(mats, A2.n)
    G = skew_gram(mats.D)
    L = intlinalg.transpose(hermite_column_basis(PhiTilde))
    L0 = [row[: A2.n] for row in PhiTilde]  # the diagonal generators
    M0 = intlinalg.mat_mul(intlinalg.transpose(L0), intlinalg.mat_mul(G, L))
    C = intlinalg.mat_mul(L, intlinalg.transpose(intlinalg.kernel_basis(M0)))
    F = intlinalg.mat_mul(intlinalg.transpose(C), intlinalg.mat_mul(G, C))
    expected = intlinalg.skew_normal_form(F).multipliers
    assert strings.cprime_multipliers(A2, word) == expected == [2]


def test_cprime_multipliers_match_the_lattice_oracle(A2, A3):
    """The closed form K^T S K against the Hermite-lattice route, on type A,
    on B2 and C2, and on both labellings of G2."""
    B2 = weyl.RootDatum(n=2, cartan=((2, -1), (-2, 2)), d=(2, 1))
    C2 = weyl.RootDatum(n=2, cartan=((2, -2), (-1, 2)), d=(1, 2))
    G2 = weyl.RootDatum(n=2, cartan=((2, -1), (-3, 2)), d=(3, 1))
    G2t = weyl.RootDatum(n=2, cartan=((2, -3), (-1, 2)), d=(1, 3))
    rng = random.Random(2024)
    sweep = [(A2, weyl.all_double_words(A2, 8)), (B2, weyl.all_double_words(B2, 6)),
             (C2, weyl.all_double_words(C2, 6)),
             (A3, [random_double_word(A3, rng, 6) for _ in range(150)])]
    sweep += [(g, [random_double_word(g, rng, 12) for _ in range(100)]) for g in (G2, G2t)]
    nonempty = 0
    for datum, words in sweep:
        for word in words:
            got = strings.cprime_multipliers(datum, word)
            assert got == lattice_cprime_multipliers(strings._context(datum, word),
                                                     datum.n), (datum, word)
            nonempty += bool(got)
    assert nonempty > 500  # the sweep reaches words with centralizer factors


def test_cell_law_catches_what_the_rank_identities_miss(monkeypatch, A2):
    """Multipliers doubled on the words whose first letter is negative pass
    every rank identity of invariants and every per-word check of C10, but
    split the cells that hold words of both kinds."""
    words = list(weyl.all_double_words(A2, 6))
    assert split_cells(results_by_cell(A2, words, simplicity_record)) == {}
    real = strings.cprime_multipliers

    def corrupted(datum, word):
        mult = real(datum, word)
        return [2 * x for x in mult] if word and word[0] < 0 else mult

    monkeypatch.setattr(strings, "cprime_multipliers", corrupted)
    split = split_cells(results_by_cell(A2, words, simplicity_record))  # raises nothing
    assert split
    for values in split.values():
        assert sorted(word[0] < 0 for word in values.values()) == [False, True]


def test_psi_check_examples(A1, A2):
    ok, factors = strings.psi_check(A1, (-1, 1))
    assert ok and factors == [1, 1]
    ok, _ = strings.psi_check(A2, ())
    assert ok
    ok, _ = strings.psi_check(A2, (1, 2, 1, -1, -2))
    assert ok


def test_psi_check_all_s3_pairs(A2):
    for cls1 in weyl.all_reduced_words(A2, 3):
        for w1 in cls1:
            break
    words1 = [cls[0] for cls in weyl.all_reduced_words(A2, 3) if cls]
    # one reduced word per element of S_3
    seen = {}
    for cls in weyl.all_reduced_words(A2, 3):
        for word in cls:
            perm = word_to_permutation(A2, word)
            seen.setdefault(perm, word)
    assert len(seen) == 6
    for u1 in seen.values():
        for u2 in seen.values():
            word = tuple(-i for i in u1) + u2
            ok, _ = strings.psi_check(A2, word)
            assert ok, word


def test_psi_prefix_walk_matches_apply_word(A3):
    """W1, W2, Psi and ReducedPsi of the one prefix walk against every prefix
    image rebuilt by apply_word: A1-A3 to length 6, A4 to 4, and B2 (= C2
    relabelled) and G2 in both labellings to 8."""
    data = [(weyl.type_a(1), 6), (weyl.type_a(2), 6), (A3, 6), (weyl.type_a(4), 4)]
    for cartan, d in ((((2, -2), (-1, 2)), (1, 2)), (((2, -1), (-3, 2)), (3, 1))):
        data += [(weyl.RootDatum(n=2, cartan=cartan, d=d), 8),
                 (weyl.RootDatum(n=2, cartan=tuple(r[::-1] for r in cartan[::-1]), d=d[::-1]), 8)]
    for datum, max_len in data:
        for word in weyl.all_double_words(datum, max_len):
            ctx = strings._context(datum, word)
            W1, W2 = weyl_matrix(datum, ctx.w1), weyl_matrix(datum, ctx.w2)
            assert (ctx.W1, ctx.W2) == (W1, W2), word
            assert (ctx.Psi, ctx.ReducedPsi) == psi_matrices_by_apply_word(datum, word), word


def test_one_word_builds_its_context_once(monkeypatch, A3):
    """invariants, psi_check and congruence_check share one context per word:
    one Weyl walk, one set of torus matrices, three skew normal forms (the
    centralizer's, script-H's and the torus H's)."""
    counts = {}

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((strings, "_weyl_walk"), (weyl, "split_double_word"),
                        (strings, "_torus_matrices"), (intlinalg, "skew_normal_form")):
        counting(owner, name)
    word = (1, 2, -1, 3, -2, 1)
    strings.invariants(A3, word)
    strings.psi_check(A3, word)
    ac.congruence_check(A3, word)
    assert counts == {"_weyl_walk": 1, "split_double_word": 1,
                      "_torus_matrices": 1, "skew_normal_form": 3}
