import itertools
import math
import random

import pytest

from conftest import (enumerate_families, family_sum, family_weight, monomial_to_string,
                      natural_weight, permutation_expansion_image, random_double_word, scaled)
from qck import weyl, wiring
from qck.qtorus import QTorusElement, coeff_qpow, mul_into

REF_WORD = (1, 2, 1, -1, -2)
REF_D = (1, 1, 1, 1, 1)


def mono(a, b, qexp=0, c=1, D=REF_D):
    return QTorusElement.monomial(len(D), D, a, b, {(qexp, ()): c})


def test_build_diagram_examples():
    d = wiring.build_diagram(1, (1,))
    assert d.columns == ((1, 1),)
    d = wiring.build_diagram(3, (-2, 1, -3, 3, 2, -1, -2, 1, -1))
    assert len(d.columns) == 9
    assert wiring.build_diagram(2, ()).columns == ()
    with pytest.raises(IndexError):
        wiring.build_diagram(1, (2,))


def test_rank_one_generator_images(A1):
    x = wiring.minor_image(A1, (1,), (1,), (1,))
    y = wiring.minor_image(A1, (1,), (1,), (2,))
    zero = wiring.minor_image(A1, (1,), (2,), (1,))
    xinv = wiring.minor_image(A1, (1,), (2,), (2,))
    one_d = (1,)
    assert x == QTorusElement.monomial(1, one_d, (1,), (0,))
    assert y == QTorusElement.monomial(1, one_d, (0,), (1,))
    assert not zero.flat
    assert xinv == QTorusElement.monomial(1, one_d, (-1,), (0,))
    # negative letter mirrors the roles of x_12 and x_21
    assert wiring.minor_image(A1, (-1,), (2,), (1,)) == QTorusElement.monomial(
        1, one_d, (0,), (1,)
    )
    assert not wiring.minor_image(A1, (-1,), (1,), (2,)).flat


def test_empty_word_images(A2):
    for i in range(1, 4):
        for j in range(1, 4):
            img = wiring.minor_image(A2, (), (i,), (j,))
            if i == j:
                assert img == QTorusElement.one(0, ())
            else:
                assert not img.flat


def test_reference_word_generator_image(A2):
    img = wiring.minor_image(A2, REF_WORD, (1,), (2,))
    expected = (
        mono((0, 0, 0, 0, 0), (1, 1, 0, 0, 1))
        + mono((0, 1, -1, -1, 1), (1, 0, 0, 0, 0))
        + mono((1, 0, 0, -1, 1), (0, 0, 1, 0, 0))
    )
    assert img == expected


def test_reference_word_minor_images(A2):
    got = wiring.minor_image(A2, REF_WORD, (1, 2), (1, 2))
    expected = (
        mono((0, 0, 0, 0, 0), (0, 1, 1, 1, 1))
        + mono((0, 0, 1, 1, 0), (0, 1, 0, 0, 1))
        + mono((0, 1, 0, 0, 1), (0, 0, 0, 0, 0))
    )
    assert got == expected
    got = wiring.minor_image(A2, REF_WORD, (1, 3), (1, 2))
    expected = (
        mono((0, 0, -1, 0, 0), (1, 0, 0, 1, 1))
        + mono((1, -1, 0, 0, 0), (0, 0, 1, 1, 1))
        + mono((1, -1, 1, 1, 0), (0, 0, 0, 0, 1))
    )
    assert got == expected


def test_reference_word_unit_images(A2):
    u = wiring.expression_image(A2, REF_WORD, "x33 * minor(23|23)")
    assert u == mono((-1, -1, -1, -1, -1), (0, 0, 0, 0, 0))
    u2 = wiring.expression_image(A2, REF_WORD, "x21^2 * x33 * minor(23|23)")
    assert u2 == mono((-3, 1, -3, -1, -1), (0, 0, 0, 2, 0), qexp=2)
    unit = u2.as_unit()
    assert unit is not None and unit[0][0] == (-3, 1, -3, -1, -1)
    inv = wiring.expression_image(A2, REF_WORD, "minor(23|23)^-1")
    assert inv.flat and all(type(v) is int for v in inv.flat.values())


def test_identity_family_and_determinant(A3):
    rng = random.Random(1)
    full = (1, 2, 3, 4)
    for _ in range(10):
        word = random_double_word(A3, rng, 6)
        diagram = wiring.build_diagram(3, word)
        fams = enumerate_families(diagram, full, full)
        assert len(fams) == 1
        det = wiring.minor_image(A3, word, full, full)
        assert det == QTorusElement.one(len(word), wiring.torus_diagonal(A3, word))


def test_no_families_on_empty_diagram(A1):
    diagram = wiring.build_diagram(1, ())
    assert enumerate_families(diagram, (1,), (2,)) == []
    assert not wiring.minor_image(A1, (), (1,), (2,)).flat
    assert wiring.minor_image(A1, (), (), ()) == QTorusElement.one(0, ())
    for minor in (wiring.minor_image, wiring.minor_image_oracle):
        with pytest.raises(wiring.SizeMismatch):
            minor(A1, (), (1,), (1, 2))
        with pytest.raises(IndexError):
            minor(A1, (1,), (1, 3), (1, 2))


def test_figure_family_present():
    diagram = wiring.build_diagram(3, (-2, 1, -3, 3, 2, -1, -2, 1, -1))
    fams = enumerate_families(diagram, (1, 3), (1, 3))
    displayed = {
        (3, 2, 2, 2, 2, 3, 3, 3, 3, 3),
        (1, 1, 1, 1, 1, 1, 1, 1, 2, 1),
    }
    assert any(set(f) == displayed for f in fams)


def test_family_weight_order_independent(A3):
    rng = random.Random(6)
    for _ in range(10):
        word = random_double_word(A3, rng, 6)
        diagram = wiring.build_diagram(3, word)
        D = wiring.torus_diagonal(A3, word)
        for A, B in (((1, 2), (1, 2)), ((1, 3), (2, 4)), ((2, 3, 4), (1, 2, 3))):
            for fam in enumerate_families(diagram, A, B):
                weights = [family_weight(diagram, (p,), D) for p in fam]
                ref = family_weight(diagram, fam, D)
                for perm in itertools.permutations(weights):
                    prod = QTorusElement.one(len(word), D)
                    for w in perm:
                        prod = prod * w
                    assert prod == ref


def test_minor_images_match_the_family_oracle():
    # every minor, the 1x1 generators and the 0x0 minor included
    rng = random.Random(9)
    cases = [(datum, word) for datum in (weyl.type_a(1), weyl.type_a(2))
             for word in weyl.all_double_words(datum, 5)]
    cases += [(datum, random_double_word(datum, rng, 7))
              for datum in (weyl.type_a(3), weyl.type_a(4)) for _ in range(3)]
    for datum, word in cases:
        levels = range(1, datum.n + 2)
        for k in range(datum.n + 2):
            for A in itertools.combinations(levels, k):
                for B in itertools.combinations(levels, k):
                    assert wiring.minor_image(datum, word, A, B) == family_sum(datum, word, A, B), (
                        word, A, B)


def test_oracle_equivalence_exhaustive_small(A2):
    minors = [
        (A, B)
        for k in (1, 2, 3)
        for A in itertools.combinations((1, 2, 3), k)
        for B in itertools.combinations((1, 2, 3), k)
    ]
    for word in weyl.all_double_words(A2, 2):
        for A, B in minors:
            assert wiring.minor_image(A2, word, A, B) == wiring.minor_image_oracle(
                A2, word, A, B
            )


def test_oracle_equivalence_random(A3):
    rng = random.Random(42)
    minors = [
        (A, B)
        for k in (1, 2, 3, 4)
        for A in itertools.combinations((1, 2, 3, 4), k)
        for B in itertools.combinations((1, 2, 3, 4), k)
    ]
    for _ in range(5):
        word = random_double_word(A3, rng, 8)
        for A, B in minors:
            assert wiring.minor_image(A3, word, A, B) == wiring.minor_image_oracle(
                A3, word, A, B
            )


def _every_minor(datum):
    levels = range(1, datum.n + 2)
    return [(A, B) for k in range(datum.n + 2) for A in itertools.combinations(levels, k)
            for B in itertools.combinations(levels, k)]


def test_row_expansion_equals_permutation_expansion():
    # every minor, the 0x0 minor included; the rank-3 and rank-4 words include
    # ones with zero generator images, whose expansion terms vanish
    A2 = weyl.type_a(2)
    cases = [(A2, word) for word in weyl.all_double_words(A2, 4)]
    rng = random.Random(31)
    cases += [(datum, random_double_word(datum, rng, 7))
              for datum in (weyl.type_a(3), weyl.type_a(4)) for _ in range(4)]
    assert any(not img.flat for datum, word in cases[-8:]
               for img in wiring.generator_images(datum, word).values())
    for datum, word in cases:
        for A, B in _every_minor(datum):
            assert wiring.minor_image_oracle(datum, word, A, B) == permutation_expansion_image(
                datum, word, A, B), (word, A, B)


def test_verify_relations_samples():
    rng = random.Random(13)
    for rank in (1, 2, 3):
        datum = weyl.type_a(rank)
        for _ in range(3):
            word = random_double_word(datum, rng, 5)
            report = wiring.verify_relations(datum, word)
            assert all(ok for _name, ok in report), word


@pytest.mark.parametrize("n1", [2, 3, 4])
def test_relation_table_counts_names_and_labels(n1):
    rels = wiring.quantum_matrix_relations(n1)
    kinds = {}
    for name, lhs, rhs in rels[:-1]:
        u, v = lhs[0][1]
        kind = ("row" if u[0] == v[0] else "column" if u[1] == v[1]
                else "commutator" if len(lhs) == 2 else "commute")
        kinds[kind] = kinds.get(kind, 0) + 1
    pairs = n1 * (n1 - 1) // 2
    assert kinds == {"row": n1 * pairs, "column": n1 * pairs,
                     "commute": pairs ** 2, "commutator": pairs ** 2}
    assert len({name for name, _lhs, _rhs in rels}) == len(rels)
    name, lhs, rhs = rels[-1]
    assert name == "det_q = 1" and rhs == [(coeff_qpow(0), ())]
    assert len(lhs) == math.factorial(n1)
    assert sorted(tuple(j for _i, j in word) for _c, word in lhs) == sorted(
        itertools.permutations(range(1, n1 + 1)))
    for c, word in lhs:  # (-q)^{l(tau)} x_{1 tau(1)} ... x_{n1 tau(n1)}
        inv = weyl.inversion_count([j for _i, j in word])
        assert [i for i, _j in word] == list(range(1, n1 + 1)) and c == coeff_qpow(inv, (-1) ** inv)
    labels = [label for _name, lhs, rhs in rels for _c, word in lhs + rhs for label in word]
    assert all(1 <= i <= n1 and 1 <= j <= n1 for i, j in labels)


@pytest.mark.parametrize("label, failing", [
    ((1, 1), ["[x11, x22] commutator", "[x11, x23] commutator",
              "[x11, x32] commutator", "[x11, x33] commutator"]),
    ((1, 2), ["[x11, x22] commutator", "[x12, x23] commutator",
              "[x11, x32] commutator", "[x12, x33] commutator"]),
])
def test_image_scaled_by_q_fails_the_commutators_it_enters_once(monkeypatch, A2, label, failing):
    # x_label -> q x_label breaks exactly the commutators with x_label on one
    # side; on w0 x w0 no image is 0, so no such relation holds by vanishing
    word = (1, 2, 1, -1, -2, -1)
    assert all(u.flat for u in wiring.generator_images(A2, word).values())
    generators = wiring._generators

    def corrupted(datum, word):
        g = generators(datum, word)
        return {**g, label: scaled(g[label], coeff_qpow(1))}

    monkeypatch.setattr(wiring, "_generators", corrupted)
    report = wiring.verify_relations(A2, word)
    assert [name for name, ok in report if not ok] == failing
    assert report[-1] == ("det_q = 1", True)  # det_q is the path family, not the images


def test_a_zero_image_made_nonzero_fails_the_relations_it_enters(monkeypatch, A2):
    # on the word (1, 2) the images of x21, x31 and x32 are 0, and the suite
    # skips words with a zero factor; making x21 a monomial breaks every
    # relation with a word of x21 and nonzero images only, so the skip reads
    # the images it is given.  x21 x31 = q x31 x21 and [x21, x32] still hold,
    # as x31 and x32 stay 0.
    word = (1, 2)
    images = wiring.generator_images(A2, word)
    assert [ij for ij, u in images.items() if not u.flat] == [(2, 1), (3, 1), (3, 2)]
    assert all(ok for _name, ok in wiring.verify_relations(A2, word))
    generators = wiring._generators

    def corrupted(datum, word):
        x21 = QTorusElement.monomial(2, (1, 1), (1, 1), (2, 2))
        return {**generators(datum, word), (2, 1): x21}

    monkeypatch.setattr(wiring, "_generators", corrupted)
    report = wiring.verify_relations(A2, word)
    assert [name for name, ok in report if not ok] == [
        "x11 x21 = q x21 x11", "x21 x22 = q x22 x21", "x21 x23 = q x23 x21",
        "x12 x21 = x21 x12", "x13 x21 = x21 x13",
        "[x11, x22] commutator", "[x11, x23] commutator", "[x21, x33] commutator"]


def test_relation_differences_leave_the_memo_images_as_they_are(A2):
    # the torus suite hands the evaluator the pass memo's own maps; with the
    # full table, det_q's expansion included, every difference is 0
    word = (1, 2, 1, -1)
    g = {ij: e.flat for ij, e in wiring._generators(A2, word).items()}
    saved = {ij: dict(flat) for ij, flat in g.items()}
    one = QTorusElement.one(len(word), wiring.torus_diagonal(A2, word))
    diffs = wiring.relation_differences(wiring.quantum_matrix_relations(3), g, one.flat,
                                        lambda out, image, vec: mul_into(out, image, vec, one.layout))
    assert [diff for _name, diff in diffs] == [{}] * len(wiring.quantum_matrix_relations(3))
    for _name, diff in diffs:  # no difference shares a map with images or start
        diff[0, 0, 0, ()] = 7
    assert g == saved and one == QTorusElement.one(len(word), one.D)
    assert all(e.flat is g[ij] for ij, e in wiring._generators(A2, word).items())


def test_generator_terms_are_weight_strings(A2, A3):
    # every term of a generator image is certified by a weight string from
    # the natural weight of the row index to that of the column index
    rng = random.Random(77)
    for datum in (A2, A3):
        for _ in range(6):
            word = random_double_word(datum, rng, 6)
            for i in range(1, datum.n + 2):
                for j in range(1, datum.n + 2):
                    img = wiring.minor_image(datum, word, (i,), (j,))
                    nu = natural_weight(datum, i)
                    mu = natural_weight(datum, j)
                    for (a, b) in img.terms:
                        ws = monomial_to_string(datum, word, nu, a, b)
                        assert ws is not None
                        assert ws.end(datum) == mu


def test_transfer_pass_matches_path_sums():
    rng = random.Random(4)
    for rank in (1, 2, 3, 4):
        datum = weyl.type_a(rank)
        levels = range(1, rank + 2)
        letters = [e for e in range(-rank, rank + 1) if e]
        for length in range(11):
            for _ in range(2):
                word = tuple(rng.choice(letters) for _ in range(length))
                images = wiring.generator_images(datum, word)
                assert set(images) == set(itertools.product(levels, levels))
                for (i, j), img in images.items():
                    assert img.terms == family_sum(datum, word, (i,), (j,)).terms, (word, i, j)


def test_images_follow_the_latest_word(A2, A3):
    first, second = REF_WORD, (2, -1, 1)
    expected = {w: {(i, j): family_sum(A2, w, (i,), (j,)) for i in (1, 2, 3) for j in (1, 2, 3)}
                for w in (first, second)}
    for word in (first, second, first):
        assert wiring.generator_images(A2, word) == expected[word]
        assert wiring.minor_image(A2, word, (1,), (2,)) == expected[word][(1, 2)]
    # the same word under another datum is another torus
    assert len(wiring.generator_images(A3, first)) == 16
    assert wiring.minor_image(A2, first, (3,), (3,)) == expected[first][(3, 3)]


def _scribble(img):
    """Overwrite every term of the flat map of img and add one more, which
    also changes a zero image."""
    img.flat.update(dict.fromkeys(img.flat, 7))
    img.flat[(9,) * img.m, (9,) * img.m, 0, ()] = 7


def test_returned_images_are_fresh(A2):
    expected = family_sum(A2, REF_WORD, (1,), (2,))
    for img in (
        wiring.minor_image(A2, REF_WORD, (1,), (2,)),
        wiring.generator_images(A2, REF_WORD)[(1, 2)],
    ):
        _scribble(img)
    assert wiring.minor_image(A2, REF_WORD, (1,), (2,)) == expected
    assert wiring.generator_images(A2, REF_WORD)[(1, 2)] == expected
    assert wiring.expression_image(A2, REF_WORD, "x12") == expected
    assert wiring.minor_image_oracle(A2, REF_WORD, (1,), (2,)) == expected


def test_returned_oracle_images_are_fresh(A2):
    minors = _every_minor(A2)
    expected = {AB: permutation_expansion_image(A2, REF_WORD, *AB) for AB in minors}
    for AB in minors:  # smallest first, so each expansion reads memoised ones
        img = wiring.minor_image_oracle(A2, REF_WORD, *AB)
        _scribble(img)
    for AB in minors:
        assert wiring.minor_image_oracle(A2, REF_WORD, *AB) == expected[AB], AB
        assert wiring.minor_image(A2, REF_WORD, *AB) == expected[AB], AB


def test_oracle_runs_only_generator_passes(A3, monkeypatch):
    assert wiring._word_images.cache_info().currsize == 0
    starts = []
    transfer = wiring._transfer

    def spy(datum, word, A):
        starts.append(A)
        return transfer(datum, word, A)

    monkeypatch.setattr(wiring, "_transfer", spy)
    word = (2, -1, 3, 1, -2, -3, 2)
    for A, B in _every_minor(A3):
        wiring.minor_image_oracle(A3, word, A, B)
    assert starts and {len(A) for A in starts} == {1}


@pytest.mark.parametrize("run", [1, 2])
def test_each_test_starts_with_an_empty_oracle_memo(A2, run):
    # the second run passes only if the autouse fixture dropped the first's memo
    assert wiring._word_images.cache_info().currsize == 0
    assert wiring._word_images(A2, REF_WORD)[3] == {}
    wiring.minor_image_oracle(A2, REF_WORD, (1, 2), (2, 3))
    assert set(wiring._word_images(A2, REF_WORD)[3]) == {((1, 2), (2, 3))}


def test_one_pass_per_start_set_and_none_on_a_second_sweep(A3, monkeypatch):
    word = (2, -1, 3, 1, -2, -3)
    wiring.minor_image(A3, word, (1,), (2,))  # a single query runs one pass
    assert list(wiring._word_images(A3, word)[2]) == [(1,)]
    minors = [(A, B) for k in range(5) for A in itertools.combinations((1, 2, 3, 4), k)
              for B in itertools.combinations((1, 2, 3, 4), k)]

    def sweep():
        for A, B in minors:
            wiring.minor_image(A3, word, A, B)
            wiring.minor_image_oracle(A3, word, A, B)
        assert all(ok for _name, ok in wiring.verify_relations(A3, word))
        wiring.expression_image(A3, word, "x12 * x21 * minor(12|23)")

    sweep()
    assert set(wiring._word_images(A3, word)[2]) == {A for A, _B in minors}
    steps = []  # every read of the move table, cached or not: a pass reads it per column
    column_steps = wiring._column_steps

    def counting(*args):
        steps.append(args)
        return column_steps(*args)

    monkeypatch.setattr(wiring, "_column_steps", counting)
    words = wiring._word_images.cache_info().misses
    sweep()
    assert steps == [] and wiring._word_images.cache_info().misses == words
    wiring._word_images.cache_clear()  # a pass run afresh reads the table through the spy
    wiring.minor_image(A3, word, (1,), (2,))
    assert len(steps) >= len(word)  # at least one state per column


def test_move_and_level_tables_are_keyed_by_level_data_only(A2, monkeypatch):
    # after every rank-2 double word of length <= 4, the move table holds one
    # entry per (sorted levels, crossing, sign) asked for, at most C(3, k) * 2
    # crossings * 2 signs of each size k, and the level memo one per minor
    wiring._column_steps.cache_clear()
    wiring._levels.cache_clear()
    asked = set()
    column_steps = wiring._column_steps

    def recording(*args):
        asked.add(args)
        return column_steps(*args)

    monkeypatch.setattr(wiring, "_column_steps", recording)
    minors = _every_minor(A2)
    for word in weyl.all_double_words(A2, 4):
        for A, B in minors:
            wiring.minor_image(A2, word, A, B)
    assert column_steps.cache_info().currsize == len(asked)
    for k in range(4):
        assert 0 < sum(len(levels) == k for levels, _c, _s in asked) <= math.comb(3, k) * 2 * 2
    assert wiring._levels.cache_info().currsize == len(minors)


def test_non_type_a_data_rejected(A2):
    b2 = weyl.RootDatum(n=2, cartan=((2, -2), (-1, 2)), d=(1, 2))
    word = (1, 2)
    wiring.generator_images(A2, word)  # the type-A images of the same word
    entry = wiring._word_images(A2, word)
    for call in (
        lambda: wiring.torus_diagonal(b2, word),
        lambda: wiring.generator_images(b2, word),
        lambda: wiring.minor_image(b2, word, (1,), (2,)),
        lambda: wiring.minor_image_oracle(b2, word, (1,), (2,)),
        lambda: wiring.expression_image(b2, word, "x12"),
        lambda: wiring.verify_relations(b2, word),
    ):
        with pytest.raises(ValueError, match="type-A"):
            call()
    # nothing was memoised for b2: the type-A entry is still the only one
    assert wiring._word_images.cache_info().currsize == 1
    assert wiring._word_images(A2, word) is entry and entry[3] == {}


def test_out_of_range_levels_rejected(A2):
    with pytest.raises(IndexError):
        wiring.minor_image(A2, REF_WORD, (4,), (1,))
    with pytest.raises(IndexError):
        wiring.minor_image_oracle(A2, REF_WORD, (0,), (1,))
    with pytest.raises(IndexError):
        wiring.expression_image(A2, REF_WORD, "x14")


@pytest.mark.parametrize("word, letter", [((3,), 3), ((-3, 1), -3), ((0,), 0)])
def test_out_of_range_letters_rejected(A2, word, letter):
    with pytest.raises(IndexError, match=f"^letter {letter} out of range for rank 2$"):
        wiring.minor_image(A2, word, (1,), (1,))


def test_expression_grammar(A2):
    x11 = wiring.minor_image(A2, REF_WORD, (1,), (1,))
    assert wiring.expression_image(A2, REF_WORD, "x11") == x11
    one = QTorusElement.one(5, REF_D)
    assert wiring.expression_image(A2, REF_WORD, "minor(12|12)^0") == one
    combined = wiring.expression_image(A2, REF_WORD, "x12 * x12")
    square = wiring.minor_image(A2, REF_WORD, (1,), (2,)) ** 2
    assert combined == square


def test_expression_negative_power_of_unit(A2):
    u = wiring.expression_image(A2, REF_WORD, "minor(23|23)^-1")
    v = wiring.minor_image(A2, REF_WORD, (2, 3), (2, 3))
    assert u * v == QTorusElement.one(5, REF_D)


def test_parse_expression_gives_minor_triples():
    # every factor is a minor; x_ij is ((i,), (j,))
    expected = [((1,), (2,), -2), ((1, 3), (2, 3), 1)]
    for text in ("x12^-2 * minor(13|23)", "x 12 ^ -2*minor ( 13 | 23 )", " x12^-2 *  minor(13|23) "):
        assert wiring.parse_expression(text) == expected, text
    assert wiring.parse_expression("minor ( 13 | 23 ) ^ -2") == [((1, 3), (2, 3), -2)]
    assert wiring.parse_expression("x11") == [((1,), (1,), 1)]


@pytest.mark.parametrize("text, position", [
    ("x1", 1), ("x123", 1), ("x12^", 4), ("", 0), ("x12 * * x11", 6),
    ("minor(12|123)", 6), ("minor(112|121)", 6), ("x1 2", 1),
    ("x1²", 2), ("minor(1²|12)", 7), ("x12^²", 4),  # str.isdigit holds for '²', int() rejects it
    ("x١٢", 1),  # int() reads the Arabic-Indic digits as 12
])
def test_rejected_expressions_name_a_position(text, position):
    with pytest.raises(wiring.ParseError, match=f"at position {position}") as err:
        wiring.parse_expression(text)
    assert err.value.position == position


def test_out_of_range_generator_names_the_levels(A2):
    with pytest.raises(IndexError, match=r"level 4 out of range 1\.\.3"):
        wiring.expression_image(A2, REF_WORD, "x44")


def test_parse_errors_carry_position():
    with pytest.raises(wiring.ParseError) as err:
        wiring.parse_expression("x1")
    assert "position" in str(err.value)
    with pytest.raises(wiring.ParseError):
        wiring.parse_expression("minor(12|123)")
    with pytest.raises(wiring.ParseError):
        wiring.parse_expression("x12 * * x11")
    with pytest.raises(wiring.ParseError):
        wiring.parse_expression("minor(112|121)")


def test_ascii_and_svg_renders():
    word = (-2, 1, -3, 3, 2, -1, -2, 1, -1)
    diagram = wiring.build_diagram(3, word)
    art = wiring.render_ascii(diagram)
    lines = art.splitlines()
    assert len(lines) == 4
    # each column renders one crossing: count crossing cells per column
    for col in range(9):
        cells = [line[3 + 4 * col : 6 + 4 * col] for line in lines]
        assert sum(1 for cell in cells if "/" in cell or "\\" in cell) == 2
    svg = wiring.render_svg(diagram)
    assert svg.count("<line") == 4 + 9  # wires plus one diagonal per column
