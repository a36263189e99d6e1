import dataclasses
import random

import pytest

from conftest import random_double_word
from qck import appendix_congruence as ac
from qck import intlinalg, weyl


def test_build_word_matrices_rank_one(A1):
    m = ac.build_word_matrices(A1, (1,))
    assert m.beta == [(1,)]
    assert m.B == [[0]]
    assert m.P == [[1]]


def test_build_word_matrices_a2_examples(A2):
    m = ac.build_word_matrices(A2, (1, 2))
    assert m.beta == [(1, 0), (1, 1)]
    assert m.Btilde[0][1] == -1  # (alpha_1, alpha_2)
    assert m.B[0][1] == 1  # (beta_1, beta_2) = (alpha_1, alpha_1 + alpha_2)
    m = ac.build_word_matrices(A2, (1, 2, 1))
    assert sorted(m.beta) == [(0, 1), (1, 0), (1, 1)]  # all three positive roots


def test_build_word_matrices_rejects_non_reduced(A2):
    # reducedness and the letter-range check both come from weyl.is_reduced,
    # in type A and in G2
    G2 = weyl.RootDatum(n=2, cartan=((2, -1), (-3, 2)), d=(3, 1))
    for datum, word in ((A2, (1, 1)), (A2, (1, 2, 1, 2)), (G2, (2, 2)), (G2, (1, 2) * 3 + (1,))):
        assert not weyl.is_reduced(datum, word)
        with pytest.raises(weyl.NonReducedWord, match="is not reduced"):
            ac.build_word_matrices(datum, word)
    assert ac.build_word_matrices(G2, (1, 2) * 3).beta  # the longest word of G2
    for datum, word, letter in ((A2, (1, 3), 3), (A2, (0,), 0), (G2, (2, 1, -1), -1), (G2, (3, 3), 3)):
        text = f"^letter {letter} out of range for rank 2$"
        with pytest.raises(IndexError, match=text):
            weyl.is_reduced(datum, word)
        with pytest.raises(IndexError, match=text):
            ac.build_word_matrices(datum, word)


def test_triangularity_and_unimodularity(A3):
    from conftest import exact_det

    for cls in weyl.all_reduced_words(A3, 5):
        for word in cls:
            m = ac.build_word_matrices(A3, word)
            l = len(word)
            for s in range(l):
                for t in range(s + 1):
                    assert m.B[s][t] == 0 and m.Btilde[s][t] == 0
                assert m.P[s][s] == 1 and m.Ptilde[s][s] == 1
            if l:
                assert abs(exact_det(m.P)) == 1
            # A and Atilde are skew
            assert intlinalg.is_skew_symmetric(m.A)
            assert intlinalg.is_skew_symmetric(m.Atilde)


def test_lemma_exhaustive_s3_s4(A2, A3):
    for datum in (A2, A3):
        for cls in weyl.all_reduced_words(datum, 6):
            for word in cls:
                rep = ac.verify_lemma(datum, word)
                assert rep["ok"], (word, rep)


def test_lemma_general_cartan():
    b2 = weyl.RootDatum(n=2, cartan=((2, -2), (-1, 2)), d=(1, 2))
    for cls in weyl.all_reduced_words(b2, 4):
        for word in cls:
            rep = ac.verify_lemma(b2, word)
            assert rep["ok"], (word, rep)


def test_congruence_examples(A1, A2):
    rep = ac.congruence_check(A2, (1, 2, 1, -1, -2))
    assert rep["ok"] and rep["rank_script_h"] == 6
    rep = ac.congruence_check(A1, (-1, 1))
    assert rep["ok"] and rep["rank_script_h"] == 2
    rep = ac.congruence_check(A2, ())
    assert rep["ok"] and rep["rank_script_h"] == 0


def test_congruence_random_a3(A3):
    rng = random.Random(14)
    for _ in range(40):
        word = random_double_word(A3, rng, 6)
        rep = ac.congruence_check(A3, word)
        assert rep["ok"], (word, rep)


def test_congruence_check_builds_word_matrices_once_per_sign_class(monkeypatch, A3):
    calls = []
    real = ac.build_word_matrices

    def counting(datum, word):
        calls.append(word)
        return real(datum, word)

    monkeypatch.setattr(ac, "build_word_matrices", counting)
    for word in ((), (1, -2, 3, -1, 2)):  # () has two equal sign classes
        calls.clear()
        ac._sign_class.cache_clear()
        assert ac.congruence_check(A3, word)["ok"]
        assert sorted(calls) == sorted(set(weyl.split_double_word(A3, word)[:2]))
    calls.clear()
    assert ac.congruence_check(A3, (-2, -1, 1, 2))["ok"]  # sign classes (2, 1) and (1, 2)
    assert calls == [(1, 2)]  # (2, 1) is still held from the word before


def test_c5_sweep_builds_each_sign_class_word_once(c5_congruence_sweep, A3):
    """Over the rank-3 C5 sweep, every double word reuses the records of its
    sign-class words: one build per distinct reduced word."""
    reports, built = c5_congruence_sweep(3)
    classes = {w for word in reports for w in weyl.split_double_word(A3, word)[:2]}
    assert all(rep["ok"] for rep in reports.values())
    assert len(built) == len(set(built)) == len(classes) == 66


def _corrupt_word_matrices(monkeypatch, fields, scale):
    """Make build_word_matrices scale the given fields (Atilde, Ctilde) of
    every word's matrices; returns the real builder."""
    real = ac.build_word_matrices

    def corrupted(datum, word):
        mats = real(datum, word)
        return dataclasses.replace(mats, **{
            name: [[scale * x for x in row] for row in getattr(mats, name)] for name in fields})

    monkeypatch.setattr(ac, "build_word_matrices", corrupted)
    return real


def test_public_h_tilde_and_script_h_are_congruent(monkeypatch, A3):
    # the stacked product Q^T Ht Q = script-H is the oracle of q_congruence,
    # which congruence_check decides from Ct P = C and P^T At P = -A; it
    # must agree on true word matrices and on corrupted ones
    for fields, scale in (((), 1), (("Ctilde",), 2), (("Atilde",), -1)):
        with monkeypatch.context() as patch:
            _corrupt_word_matrices(patch, fields, scale)
            ac._sign_class.cache_clear()  # verdicts held from the builder before
            rng = random.Random(15)
            verdicts = set()
            for _ in range(20):
                word = random_double_word(A3, rng, 6)
                minus, plus, _ = weyl.split_double_word(A3, word)
                mp, mm = ac.build_word_matrices(A3, plus), ac.build_word_matrices(A3, minus)
                P = intlinalg.block_diag(mp.P, mm.P, intlinalg.identity(3))
                Ht, Hs = ac._h_tilde(3, mp, mm), ac._script_h(3, mp, mm)
                assert intlinalg.is_skew_symmetric(Ht) and intlinalg.is_skew_symmetric(Hs)
                stacked = intlinalg.mat_mul(intlinalg.transpose(P), intlinalg.mat_mul(Ht, P)) == Hs
                assert ac.congruence_check(A3, word)["q_congruence"] is stacked, (fields, word)
                verdicts.add(stacked)
            assert verdicts == ({False, True} if fields else {True}), fields


@pytest.mark.parametrize("fields", [(), ("Atilde",), ("Ctilde",)])
def test_congruence_check_builds_ht_only_when_an_identity_fails(monkeypatch, A3, fields):
    _corrupt_word_matrices(monkeypatch, fields, 2)
    built = []
    real_h_tilde = ac._h_tilde
    monkeypatch.setattr(ac, "_h_tilde", lambda n, mp, mm: built.append(1) or real_h_tilde(n, mp, mm))
    rep = ac.congruence_check(A3, (1, 2, -1, 3, -2))
    assert rep["q_congruence"] is (not fields)
    assert len(built) == (1 if fields else 0)
    built.clear()
    assert ac.congruence_check(A3, ())["q_congruence"] and built == []  # nothing to corrupt


def test_sign_class_extraction_preserves_order(A3):
    # congruence_check reads its sign-class words from the split: w2 holds
    # the positive letters, w1 the negated negative ones, both in order
    assert weyl.split_double_word(A3, (1, -2, 3, -1, 2))[:2] == ((2, 1), (1, 3, 2))


def test_ht_multipliers_equal_script_h_multipliers_on_the_c5_sweep(c5_congruence_sweep):
    """The cross-checks congruence_check skips, on C5's words: Ht's own skew
    normal form, skipped once Q^T Ht Q = script-H holds (Q is unimodular),
    and the Bareiss rank of script-H, read from its verified normal form."""
    for rank in (1, 2, 3):
        datum = weyl.type_a(rank)
        for word, rep in c5_congruence_sweep(rank)[0].items():
            minus, plus, _ = weyl.split_double_word(datum, word)
            mp, mm = ac._sign_class(datum, plus)[0], ac._sign_class(datum, minus)[0]
            Ht, Hs = ac._h_tilde(rank, mp, mm), ac._script_h(rank, mp, mm)
            assert intlinalg.skew_normal_form(Ht).multipliers == rep["multipliers"], (rank, word)
            assert intlinalg.rank_over_Q(Hs) == rep["rank_script_h"], (rank, word)


@pytest.mark.parametrize("scale,agree", [(2, False), (-1, True)])
def test_non_congruent_ht_reports_its_own_multipliers(monkeypatch, A3, scale, agree):
    # scaling At and Ct scales Ht: Ct P = C and P^T At P = -A fail, so (a)
    # fails; Ht's multipliers are |scale| times script-H's, so (c) fails
    # only for scale 2
    # the three skew normal forms are script-H's, Ht's and the torus H's,
    # the last one reached through the word's record
    real_build = _corrupt_word_matrices(monkeypatch, ("Atilde", "Ctilde"), scale)
    seen = []
    real_form = intlinalg.skew_normal_form
    monkeypatch.setattr(intlinalg, "skew_normal_form", lambda H: seen.append(H) or real_form(H))
    word = (1, 2, -1, 3, -2)
    rep = ac.congruence_check(A3, word)
    minus, plus, _ = weyl.split_double_word(A3, word)
    mp, mm = real_build(A3, plus), real_build(A3, minus)
    assert [[scale * x for x in row] for row in ac._h_tilde(3, mp, mm)] in seen and len(seen) == 3
    assert ac.strings._context(A3, word).H in seen
    assert not rep["q_congruence"] and not rep["ok"]
    assert rep["multipliers_agree"] is agree
    assert rep["multipliers"] == real_form(ac._script_h(3, mp, mm)).multipliers
