"""Root-sequence matrices of reduced words and the congruence between the
two skew matrices attached to a double word.

For a reduced word j the roots beta_k = s_{j_1}...s_{j_{k-1}}(alpha_{j_k})
give strictly upper-triangular pairing matrices B (in the betas) and Bt (in
the simple roots), their antisymmetrizations A and At, weight-root pairing
matrices C and Ct, and unitriangular base-change matrices P = I + D^{-1}B,
Pt = I + D^{-1}Bt satisfying

    (beta_1 .. beta_l) = (alpha_{j_1} .. alpha_{j_l}) P,
    (alpha_{j_1} .. alpha_{j_l}) = (beta_1 .. beta_l) Pt,
    Pt P = P Pt = I,            Ct P = C,        P^T At P = -A.

Stacking the positive-letter and negative-letter data of a double word gives
Ht (simple-root form) and script-H (beta form) with Q^T Ht Q = script-H for
Q = diag(P(plus), P(minus), I_n).  Block by block, the diagonal blocks of
that identity are P^T At P = -A for the two sign-class words, the blocks
(1,3), (2,3) and their transposes are Ct P = C, and the other blocks are 0
on both sides; so the congruence is decided by those two identities per
sign-class word, and the stacked product is never formed.  Both depend on
the reduced word alone: each sign-class word's matrices and verdicts are one
record, shared by every double word with that sign class.  script-H has
rank l(w1)+l(w2)+rank(w1-w2) and shares its skew congruence invariants with
the commutation matrix of the word's localized torus.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from . import intlinalg, strings, weyl
from .intlinalg import CrossCheckFailed
from .weyl import NonReducedWord

# note: pairing matrices use the plain symmetrized form (alpha_i, alpha_j) =
# d_i c_ij, so that D^{-1}B and D^{-1}Bt have the exact coroot pairings as
# entries and stay integral for every symmetrizable datum


# beta holds the roots in alpha-basis coordinates
ReducedWordMatrices = namedtuple("ReducedWordMatrices", "word beta B Btilde A Atilde C Ctilde D P Ptilde")


def _root_inner(datum, c1, c2):
    """(beta, beta') from alpha-coordinates via the symmetrized Cartan form."""
    n = datum.n
    return sum(
        c1[i] * c2[j] * datum.d[i] * datum.cartan[i][j]
        for i in range(n)
        for j in range(n)
    )


def build_word_matrices(datum, word):
    word = tuple(word)
    if not weyl.is_reduced(datum, word):
        raise NonReducedWord(f"{word} is not reduced")
    l = len(word)
    n = datum.n
    betas = weyl.beta_roots(datum, word)

    B = intlinalg.zeros(l, l)
    Bt = intlinalg.zeros(l, l)
    for s in range(l):
        for t in range(s + 1, l):
            B[s][t] = _root_inner(datum, betas[s], betas[t])
            Bt[s][t] = datum.sym(word[s], word[t])
    A = [[B[s][t] - B[t][s] for t in range(l)] for s in range(l)]
    At = [[Bt[s][t] - Bt[t][s] for t in range(l)] for s in range(l)]

    # C_st = (omega_s, beta_t) = d_s * (alpha-coordinate s of beta_t)
    C = [[datum.d[s] * betas[t][s] for t in range(l)] for s in range(n)]
    Ct = [[datum.d[s] * (1 if word[t] - 1 == s else 0) for t in range(l)] for s in range(n)]

    D = [datum.d[word[k] - 1] for k in range(l)]
    P = intlinalg.identity(l)
    Pt = intlinalg.identity(l)
    for s in range(l):
        for t in range(l):
            if B[s][t] % D[s] != 0 or Bt[s][t] % D[s] != 0:
                raise CrossCheckFailed("pairing matrices are not divisible by the symmetrizers")
            P[s][t] += B[s][t] // D[s]
            Pt[s][t] += Bt[s][t] // D[s]

    return ReducedWordMatrices(
        word=word, beta=betas, B=B, Btilde=Bt, A=A, Atilde=At,
        C=C, Ctilde=Ct, D=D, P=P, Ptilde=Pt,
    )


def verify_lemma(datum, word):
    """Exact checks of the base-change identities for one reduced word.

    Returns a dict with booleans: beta_from_alpha ((beta) = (alpha) P),
    alpha_from_beta ((alpha) = (beta) Pt), product_identity (Pt P = I),
    plus the two derived congruence facts used downstream (Ct P = C and
    P^T At P = -A).
    """
    word = tuple(word)
    mats, ct_p, pap = _sign_class(datum, word)
    l = len(word)
    n = datum.n
    alpha_cols = [[1 if t == word[k] - 1 else 0 for k in range(l)] for t in range(n)]
    beta_cols = [[mats.beta[k][t] for k in range(l)] for t in range(n)]
    beta_from_alpha = intlinalg.mat_eq(intlinalg.mat_mul(alpha_cols, mats.P), beta_cols) if l else True
    alpha_from_beta = intlinalg.mat_eq(intlinalg.mat_mul(beta_cols, mats.Ptilde), alpha_cols) if l else True
    product_identity = intlinalg.mat_eq(
        intlinalg.mat_mul(mats.Ptilde, mats.P), intlinalg.identity(l)
    )
    return {
        "word": word,
        "beta_from_alpha": beta_from_alpha,
        "alpha_from_beta": alpha_from_beta,
        "product_identity": product_identity,
        "ct_p_equals_c": ct_p,
        "pt_at_p_equals_minus_a": pap,
        "ok": all([beta_from_alpha, alpha_from_beta, product_identity, ct_p, pap]),
    }


@functools.lru_cache(maxsize=256)
def _sign_class(datum, word):
    """(matrices, Ct P = C, P^T At P = -A) of one reduced word, kept for the
    256 (datum, word) used last.  Every double word with this sign class
    shares it, so nothing in it may be mutated: _h_tilde and _script_h build
    new matrices."""
    mats = build_word_matrices(datum, word)
    ct_p = intlinalg.mat_eq(intlinalg.mat_mul(mats.Ctilde, mats.P), mats.C) if word else True
    pap = intlinalg.mat_eq(
        intlinalg.mat_mul(intlinalg.transpose(mats.P), intlinalg.mat_mul(mats.Atilde, mats.P)),
        intlinalg.mat_neg(mats.A),
    )
    return mats, ct_p, pap


def _stack(n, Xp, Xm, Yp, Ym):
    """[[Xp, 0, -Yp^T], [0, Xm, Ym^T], [Yp, -Ym, 0]] for the l+ x l+ and
    l- x l- blocks Xp, Xm and the n x l+ and n x l- blocks Yp, Ym."""
    lp, lm = len(Xp), len(Xm)
    H = intlinalg.block_diag(Xp, Xm, intlinalg.zeros(n, n))
    for s in range(n):
        for t in range(lp):
            H[lp + lm + s][t] = Yp[s][t]
            H[t][lp + lm + s] = -Yp[s][t]
        for t in range(lm):
            H[lp + lm + s][lp + t] = -Ym[s][t]
            H[lp + t][lp + lm + s] = Ym[s][t]
    return H


def _h_tilde(n, mp, mm):
    """Simple-root form of the reordered commutation matrix:
    [[-At(plus), 0, -Ct(plus)^T], [0, At(minus), Ct(minus)^T],
     [Ct(plus), -Ct(minus), 0]]."""
    return _stack(n, intlinalg.mat_neg(mp.Atilde), mm.Atilde, mp.Ctilde, mm.Ctilde)


def _script_h(n, mp, mm):
    """Beta form: [[A(plus), 0, -C(plus)^T], [0, -A(minus), C(minus)^T],
    [C(plus), -C(minus), 0]]."""
    return _stack(n, mp.A, intlinalg.mat_neg(mm.A), mp.C, mm.C)


def congruence_check(datum, word):
    """Verify, exactly: (a) Q^T Ht Q = script-H with Q = diag(P+, P-, I_n),
    (b) rank script-H = l(w1) + l(w2) + rank(w1 - w2), (c) the skew
    congruence multipliers of Ht, script-H, and the torus commutation matrix
    H(i~) all agree (a complete congruence invariant, stronger than rank).

    (a) holds exactly when Ct P = C and P^T At P = -A hold for both
    sign-class words (see the module docstring), so the verdicts of their
    records decide it.  Q is unitriangular, hence unimodular, so once (a)
    holds Ht has script-H's multipliers; Ht is built, for its own normal
    form, only when (a) fails.  For (b), rank script-H is twice the number
    of its multipliers: the skew normal form they come from is verified
    exactly.  (c) reads the torus H's normal form from the word's record."""
    word = tuple(word)
    ctx = strings._context(datum, word)
    mp, *identities_p = _sign_class(datum, ctx.w2)  # the positive letters
    mm, *identities_m = _sign_class(datum, ctx.w1)  # the negated negative letters
    congruent = all(identities_p + identities_m)
    Hs = _script_h(datum.n, mp, mm)

    mult_hs = intlinalg.skew_normal_form(Hs).multipliers
    rank_script = 2 * len(mult_hs)
    rank_expected = len(ctx.w1) + len(ctx.w2) + ctx.rank_diff
    mult_ht = mult_hs if congruent else intlinalg.skew_normal_form(_h_tilde(datum.n, mp, mm)).multipliers
    mult_torus = ctx.H_form.multipliers

    return {
        "word": word,
        "q_congruence": congruent,
        "rank_script_h": rank_script,
        "rank_expected": rank_expected,
        "rank_ok": rank_script == rank_expected,
        "multipliers": mult_hs,
        "multipliers_agree": mult_ht == mult_hs == mult_torus,
        "ok": congruent and rank_script == rank_expected and mult_ht == mult_hs == mult_torus,
    }
