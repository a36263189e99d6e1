import itertools
import random

import pytest

from conftest import (
    all_double_words_by_split,
    all_reduced_words_by_filter,
    apply_word,
    invert_rational,
    is_reduced_by_betas,
    is_reduced_by_inversions,
    ker_rank,
    natural_weight,
    weyl_matrix,
    word_to_permutation,
)
from qck import intlinalg, strings, weyl


def w(*coords):
    return tuple(coords)


def test_reflect_rank_one(A1):
    assert weyl.reflect(A1, 1, w(1)) == w(-1)


def test_reflect_orthogonal_fundamental(A2):
    assert weyl.reflect(A2, 1, w(0, 1)) == w(0, 1)


def test_reflect_composition(A2):
    # s_2 s_1 (omega_1) = omega_1 - alpha_1 - alpha_2
    got = weyl.reflect(A2, 2, weyl.reflect(A2, 1, w(1, 0)))
    alpha1, alpha2 = A2.simple_roots
    expected = tuple(1 * (i == 0) - a - b for i, (a, b) in enumerate(zip(alpha1, alpha2)))
    assert got == expected == w(0, -1)


def test_reflect_involution(A3):
    rng = random.Random(7)
    for _ in range(200):
        mu = tuple(rng.randint(-4, 4) for _ in range(3))
        i = rng.randint(1, 3)
        assert weyl.reflect(A3, i, weyl.reflect(A3, i, mu)) == mu


def test_reflect_index_errors(A2):
    with pytest.raises(IndexError):
        weyl.reflect(A2, 0, w(0, 0))
    with pytest.raises(IndexError):
        weyl.reflect(A2, 3, w(0, 0))


@pytest.mark.parametrize(
    "word,expected",
    [((1, 2, 1), True), ((1, 1), False), ((1, 2, 1, 2), False), ((), True)],
)
def test_is_reduced_examples(A2, word, expected):
    assert weyl.is_reduced(A2, word) is expected


def test_is_reduced_contract(A2):
    # every letter is range-checked before the first non-ascent decides
    with pytest.raises(IndexError):
        weyl.is_reduced(A2, (1, 1, 99))
    with pytest.raises(IndexError):
        weyl.is_reduced(A2, (0,))
    assert weyl.is_reduced(A2, (1, 1)) is False


# (datum, longest word the enumerations are compared on); G2 in both labellings
ORACLE_DATA = {
    "A1": (weyl.type_a(1), 8),
    "A2": (weyl.type_a(2), 8),
    "A3": (weyl.type_a(3), 6),
    "A4": (weyl.type_a(4), 5),
    "B2": (weyl.RootDatum(n=2, cartan=((2, -2), (-1, 2)), d=(1, 2)), 8),
    "C2": (weyl.RootDatum(n=2, cartan=((2, -1), (-2, 2)), d=(2, 1)), 8),
    "G2": (weyl.RootDatum(n=2, cartan=((2, -1), (-3, 2)), d=(3, 1)), 12),
    "G2'": (weyl.RootDatum(n=2, cartan=((2, -3), (-1, 2)), d=(1, 3)), 12),
}


@pytest.mark.parametrize("name", ORACLE_DATA)
def test_is_reduced_matches_oracles(name):
    datum, _ = ORACLE_DATA[name]
    for m in range(7):
        for word in itertools.product(range(1, datum.n + 1), repeat=m):
            got = weyl.is_reduced(datum, word)
            assert got == is_reduced_by_betas(datum, word), word
            if datum.is_type_a:
                assert got == is_reduced_by_inversions(datum, word), word


@pytest.mark.parametrize("name", ORACLE_DATA)
def test_enumerations_match_filter_oracles(name):
    datum, max_len = ORACLE_DATA[name]
    assert weyl.all_reduced_words(datum, max_len) == all_reduced_words_by_filter(datum, max_len)
    assert weyl.all_double_words(datum, max_len) == all_double_words_by_split(datum, max_len)


def _bfs_lengths(datum):
    """True Coxeter lengths by breadth-first search on the Weyl group,
    independent of inversion counting."""
    n = datum.n
    start = tuple(map(tuple, intlinalg.identity(n)))
    gens = [tuple(map(tuple, weyl_matrix(datum, (i,)))) for i in range(1, n + 1)]

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )

    lengths = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = mul(g, s)
                if h not in lengths:
                    lengths[h] = lengths[g] + 1
                    nxt.append(h)
        frontier = nxt
    return lengths, mul, start, gens


def test_is_reduced_brute_force_oracle(A3):
    lengths, mul, start, gens = _bfs_lengths(A3)
    assert len(lengths) == 24
    for m in range(0, 7):
        for word in itertools.product((1, 2, 3), repeat=m):
            g = start
            for i in word:
                g = mul(g, gens[i - 1])
            assert weyl.is_reduced(A3, word) == (lengths[g] == m)


def test_is_reduced_general_cartan_branch():
    b2 = weyl.RootDatum(n=2, cartan=((2, -2), (-1, 2)), d=(1, 2))
    assert not b2.is_type_a
    lengths, mul, start, gens = _bfs_lengths(b2)
    assert len(lengths) == 8
    for m in range(0, 6):
        for word in itertools.product((1, 2), repeat=m):
            g = start
            for i in word:
                g = mul(g, gens[i - 1])
            assert weyl.is_reduced(b2, word) == (lengths[g] == m)


def test_invalid_cartan_rejected():
    with pytest.raises(ValueError):
        weyl.RootDatum(n=2, cartan=((2, 1), (1, 2)), d=(1, 1))
    with pytest.raises(ValueError):
        weyl.RootDatum(n=2, cartan=((2, -2), (-1, 2)), d=(1, 1))


@pytest.mark.parametrize("d", [(1,), (1, 1, 1)])
def test_symmetrizer_count_must_match_rank(d):
    with pytest.raises(ValueError, match="symmetrizers for rank 2"):
        weyl.RootDatum(n=2, cartan=((2, -1), (-1, 2)), d=d)


def test_list_data_are_stored_as_tuples(A2):
    datum = weyl.RootDatum(n=2, cartan=[[2, -1], [-1, 2]], d=[1, 1])
    assert datum == A2 and hash(datum) == hash(A2) and datum.is_type_a
    assert datum.cartan == ((2, -1), (-1, 2)) and datum.d == (1, 1)
    assert strings.invariants(datum, (1, -2)) == strings.invariants(A2, (1, -2))


def test_weyl_matrix_examples(A1, A2):
    assert weyl_matrix(A2, ()) == intlinalg.identity(2)
    assert weyl_matrix(A1, (1,)) == [[-1]]
    w0 = weyl_matrix(A2, (1, 2, 1))
    # longest element swaps and negates the fundamental weights
    assert w0 == [[0, -1], [-1, 0]]


def test_weyl_matrix_multiplicative(A3):
    rng = random.Random(3)
    for _ in range(40):
        u = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
        v = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
        lhs = weyl_matrix(A3, u + v)
        rhs = intlinalg.mat_mul(weyl_matrix(A3, u), weyl_matrix(A3, v))
        assert lhs == rhs


@pytest.mark.parametrize("rank", [2, 3])
def test_weyl_matrix_orthogonality(rank):
    # exact Gram identity A^T G A = G with G the fundamental-weight Gram matrix
    datum = weyl.type_a(rank)
    cinv = invert_rational([list(r) for r in datum.cartan])
    G = [[datum.d[i] * cinv[i][j] for j in range(rank)] for i in range(rank)]
    rng = random.Random(rank)
    words = [tuple(rng.randint(1, rank) for _ in range(m)) for m in (0, 1, 2, 3, 5)]
    for word in words:
        A = weyl_matrix(datum, word)
        lhs = intlinalg.mat_mul(intlinalg.transpose(A), intlinalg.mat_mul(G, A))
        assert lhs == G


def test_split_double_word_example(A2):
    w1, w2, supp = weyl.split_double_word(A2, (1, 2, 1, -1, -2))
    assert w1 == (1, 2)
    assert w2 == (1, 2, 1)
    assert supp == {1, 2}


def test_split_double_word_empty(A2):
    assert weyl.split_double_word(A2, ()) == ((), (), frozenset())


def test_split_double_word_rank_one(A1):
    w1, w2, supp = weyl.split_double_word(A1, (-1, 1))
    assert w1 == (1,) and w2 == (1,) and supp == {1}


def test_split_double_word_rejects_non_reduced(A2):
    with pytest.raises(weyl.NonReducedWord, match="w2"):
        weyl.split_double_word(A2, (1, 1))
    with pytest.raises(weyl.NonReducedWord, match="w1"):
        weyl.split_double_word(A2, (-1, 2, -1))
    with pytest.raises(IndexError):
        weyl.split_double_word(A2, (3,))


@pytest.mark.parametrize(
    "word,message",
    [
        ((-1, 2, -1), "negative letters (1, 1) are not reduced (w1 factor)"),
        ((1, -2, 1), "positive letters (1, 1) are not reduced (w2 factor)"),
    ],
)
def test_split_double_word_messages(A2, word, message):
    with pytest.raises(weyl.NonReducedWord) as err:
        weyl.split_double_word(A2, word)
    assert str(err.value) == message


def test_ker_rank_examples(A2):
    assert ker_rank(A2, (), ()) == 2
    assert ker_rank(A2, (1,), (1,)) == 2
    assert ker_rank(A2, (1, 2), (1, 2, 1)) == 1


def test_ker_rank_diagonal(A2, A3):
    for datum in (A2, A3):
        for cls in weyl.all_reduced_words(datum, 4):
            for word in cls:
                assert ker_rank(datum, word, word) == datum.n


def test_natural_weights(A2):
    vals = [natural_weight(A2, j) for j in (1, 2, 3)]
    assert vals == [(1, 0), (-1, 1), (0, -1)]
    assert tuple(map(sum, zip(*vals))) == (0, 0)
    with pytest.raises(IndexError):
        natural_weight(A2, 4)


def test_natural_weights_match_permutation_action(A3):
    # w(eps_j) = eps_{w(j)} in type A
    rng = random.Random(11)
    for _ in range(30):
        word = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 5)))
        perm = word_to_permutation(A3, word)
        for j in range(1, 5):
            lhs = apply_word(A3, word, natural_weight(A3, j))
            assert lhs == natural_weight(A3, perm[j - 1])


def test_word_serialization_roundtrip():
    for word in [(), (1,), (1, 2, 1, -1, -2), (-3, 3)]:
        assert weyl.parse_word(weyl.format_word(word)) == word
