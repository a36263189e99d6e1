"""Weight strings and the structural invariants of the localized algebra
attached to a signed double word.

A weight string of type i~ starting at nu is determined by its nonnegative
steps j_k: mu_k = mu_{k-1} - j_k * sgn(i~_k) * alpha_{|i~_k|}.  The string
carries the exponent monomial x^a y^b with

    a_k = (mu_{k-1} + mu_k, alpha_{|i~_k|}^vee) / 2,
    b_k = |(mu_{k-1} - mu_k, alpha_{|i~_k|}^vee)| / 2 = j_k.

The generator strings (constant strings at fundamental weights, and the
step strings) assemble into integer matrices whose ranks and congruence
invariants describe the localized algebra: its dimension, center, diagonal
subtorus, and the 2-generator torus factors of the centralizer complement.
The matrices are built here directly; the strings themselves, with their
exponent map, are the tests' oracle for them.

Each double word has one record, `StringMatrices`: its split, the Weyl
matrices W1 and W2 of its two factors, the Psi matrices, and the torus
matrices, with LambdaInv, OmegaTilde and the skew normal form of the torus H
built on first use.  W1, W2, Psi and ReducedPsi come from one walk over the
letters that keeps w(omega_s) and w^{-1}(omega_s) for each sign class's
prefix w.  `invariants`, `psi_check` and appendix_congruence.congruence_check
all read the record, so each of these is built, and H reduced, once per word.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import mul, sub

from . import intlinalg, weyl
from .intlinalg import CrossCheckFailed


# ---------------------------------------------------------------------------
# structural matrices


def _torus_matrices(datum, word):
    """(D, Omega, Lambda, H) of a double word, without validating the word."""
    n = datum.n
    m = len(word)
    letters = [abs(e) for e in word]
    signs = [1 if e > 0 else -1 for e in word]
    D = tuple(datum.d[i - 1] for i in letters)

    # Omega_st = (alpha_{|i_s|}^vee, omega_t)
    Omega = [[1 if letters[s] == t + 1 else 0 for t in range(n)] for s in range(m)]
    # Lambda_st = 0 (s<t), -sgn(i_t) (s=t), -sgn(i_t)(alpha_{|i_s|}^vee, alpha_{|i_t|}) (s>t)
    Lambda = [
        [
            0
            if s < t
            else (
                -signs[t]
                if s == t
                else -signs[t] * datum.cartan[letters[s] - 1][letters[t] - 1]
            )
            for t in range(m)
        ]
        for s in range(m)
    ]

    # H = [[0, Omega^T D], [-D Omega, Lambda^T D - D Lambda]]
    H = intlinalg.zeros(n + m, n + m)
    for i in range(n):
        for k in range(m):
            v = Omega[k][i] * D[k]
            H[i][n + k] = v
            H[n + k][i] = -v
    for k in range(m):
        for l in range(m):
            H[n + k][n + l] = Lambda[l][k] * D[l] - D[k] * Lambda[k][l]
    return D, Omega, Lambda, H


def _weyl_walk(datum, word):
    """(W1, W2, Psi, ReducedPsi) of a split double word from one walk over its
    letters.  For each sign class it keeps w(omega_s) and w^{-1}(omega_s) of
    the prefix w: appending s_i moves only omega_i in the first, w s_i(omega_i)
    = w(omega_i) - w(alpha_i), and reflects the second, (w s_i)^{-1} = s_i
    w^{-1}.  Column s of W1 (W2) is the final w(omega_s) of the negative
    (positive) letters.  Letter t's column of Psi holds (w_{<=t}(omega_s),
    alpha_{|i_t|}^vee) in the top (bottom) half when i_t is negative
    (positive), w_{<=t} being its sign class's prefix, and its column of
    ReducedPsi the same pairings of w_{<=t}^{-1}(omega_s)."""
    n = datum.n
    omegas = [tuple(int(s == t) for t in range(n)) for s in range(n)]
    imgs = {sign: (list(omegas), list(omegas)) for sign in (False, True)}
    top, bot, reduced = ([[] for _ in range(n)] for _ in range(3))
    for e in word:
        i = abs(e)
        fwd, inv = imgs[e > 0]
        alpha = datum.simple_roots[i - 1]  # w(alpha_i) = sum_j alpha_i[j] w(omega_j)
        w_alpha = [sum(map(mul, alpha, coords)) for coords in zip(*fwd)]
        fwd[i - 1] = tuple(map(sub, fwd[i - 1], w_alpha))
        inv[:] = [weyl.reflect(datum, i, mu) for mu in inv]
        for s in range(n):
            pair = fwd[s][i - 1]  # (w(omega_s), alpha_i^vee)
            top[s].append(0 if e > 0 else pair)
            bot[s].append(pair if e > 0 else 0)
            reduced[s].append(inv[s][i - 1])
    neg, pos = imgs[False][0], imgs[True][0]
    W1, W2 = ([list(row) for row in zip(*cols)] for cols in (neg, pos))
    psi = [list(neg[s]) + top[s] for s in range(n)]
    psi += [[-x for x in pos[s]] + bot[s] for s in range(n)]
    return W1, W2, psi, reduced


@dataclass(frozen=True)
class StringMatrices:
    """What invariants, psi_check and congruence_check share for one double
    word: its split, W1, W2 and rank(W1 - W2), the Psi matrices, the torus
    matrices, and (built on first use) LambdaInv, OmegaTilde and H_form, the
    skew normal form of H.  Held in the one-entry memo of `_context`, so
    nothing in it may be mutated."""

    word: tuple
    w1: tuple
    w2: tuple
    supp: frozenset
    W1: list  # n x n, column s holds the omega-coordinates of w1(omega_s)
    W2: list
    Psi: list  # 2n x (n+m), [[W1^T, top], [-W2^T, bottom]]: see _weyl_walk
    ReducedPsi: list  # n x m, (omega_s, w_{<=t}^{sgn(i_t)}(alpha_{|i_t|}^vee))
    rank_diff: int  # rank over Q of W1 - W2
    D: tuple  # diagonal of D_i~
    Omega: list  # m x n
    Lambda: list  # m x m, lower triangular, unimodular
    H: list  # (n+m) x (n+m) skew, q-commute indices of the generators

    @functools.cached_property
    def LambdaInv(self):
        """m x m, Lambda^{-1}, exact: Lambda is unitriangular up to sign."""
        inv = intlinalg.invert_unitriangular(self.Lambda)
        if not intlinalg.mat_eq(intlinalg.mat_mul(self.Lambda, inv), intlinalg.identity(len(inv))):
            raise CrossCheckFailed("Lambda * Lambda^-1 is not the identity")
        return inv

    @functools.cached_property
    def OmegaTilde(self):
        """m x n, Lambda^{-1} Omega."""
        return intlinalg.mat_mul(self.LambdaInv, self.Omega)

    @functools.cached_property
    def H_form(self):
        """The skew normal form of H, verified exactly (H = R^T N R) by skew_normal_form."""
        return intlinalg.skew_normal_form(self.H)


@functools.lru_cache(maxsize=1)
def _context(datum, word):
    """The `StringMatrices` of a tuple word, kept for the most recent
    (datum, word); raises NonReducedWord as split_double_word does."""
    w1, w2, supp = weyl.split_double_word(datum, word)
    W1, W2, psi, reduced = _weyl_walk(datum, word)
    rank_diff = intlinalg.rank_over_Q([list(map(sub, r1, r2)) for r1, r2 in zip(W1, W2)])
    return StringMatrices(word, w1, w2, supp, W1, W2, psi, reduced, rank_diff,
                          *_torus_matrices(datum, word))


@dataclass
class WordInvariants:
    m: int
    s: int
    n_dim: int
    d: int
    k: int
    rank_H: int
    multipliers: list


def invariants(datum, word):
    """Structural invariants of the localized algebra, with each rank
    identity cross-checked once against the Weyl-matrix oracle: rank
    OmegaTilde = |supp|, d = m + n - rank H = dim ker(w1 - w2), and k a
    nonnegative integer with k centralizer multipliers.  n_dim = m + rank
    OmegaTilde is the rank of the generator exponents [[Omega, Lambda], [0,
    I_m]]; rank H is twice the number of multipliers in H's verified form.

    A failing cross-check raises CrossCheckFailed: it means two formulas the
    theory proves equal disagreed, i.e. an implementation bug.
    """
    word = tuple(word)
    ctx = _context(datum, word)
    supp = ctx.supp
    m = len(word)
    n = datum.n

    s = intlinalg.rank_over_Q(ctx.OmegaTilde) if m else 0
    if s != len(supp):
        raise CrossCheckFailed(f"rank OmegaTilde = {s} but |supp| = {len(supp)}")
    n_dim = m + s

    rank_H = 2 * len(ctx.H_form.multipliers)
    d = m + n - rank_H

    dk = n - ctx.rank_diff  # dim ker(w1 - w2)
    if d != dk:
        raise CrossCheckFailed(f"d = m+n-rank H = {d} but dim ker(w1-w2) = {dk}")

    # The center of the localized torus lives on the rank-(m+s) exponent
    # lattice, so its dimension is (m+s) - rank_H; this is d = m+n-rank_H
    # on full-support words (s = n).  k counts the 2-generator torus
    # factors of the centralizer complement.
    d_center = m + s - rank_H
    if (m - d_center - s) % 2 != 0 or m - d_center - s < 0:
        raise CrossCheckFailed(
            f"k = (m-d_center-s)/2 is not a nonnegative integer: m={m} d_center={d_center} s={s}"
        )
    k = (m - d_center - s) // 2

    mult = cprime_multipliers(datum, word)
    if len(mult) != k:
        raise CrossCheckFailed(f"centralizer-complement multipliers {mult} do not match k={k}")

    return WordInvariants(m=m, s=s, n_dim=n_dim, d=d, k=k, rank_H=rank_H, multipliers=mult)


def cprime_multipliers(datum, word):
    """Multipliers of the 2-generator torus factors in the centralizer of the
    diagonal subtorus.

    The generator exponents span the columns of PhiTilde = [[0, I_m],
    [OmegaTilde, Lambda^{-1}]], i.e. the lattice {(x, Lambda^{-1} x +
    OmegaTilde y)} with x in Z^m and y in Z^n, and the diagonal subtorus the
    sublattice {(0, OmegaTilde y)}.  Under the skew form
    g((a, b), (a', b')) = a^T D b' - a'^T D b, the pairing with the diagonal
    is x^T D OmegaTilde y', so the centralizer lattice, the annihilator of
    the diagonal, is x in ker(OmegaTilde^T D) with y free.  There the y part
    pairs to zero with everything, and the induced form is x^T S x' with
    S = D Lambda^{-1} - (D Lambda^{-1})^T.  With K a basis of the (saturated)
    integer kernel of the n x m matrix OmegaTilde^T D, the multipliers are
    those of the congruence normal form of K^T S K.
    """
    ctx = _context(datum, tuple(word))
    D, Li = ctx.D, ctx.LambdaInv
    m = len(D)
    # OmegaTilde^T D, n x m
    ker = intlinalg.kernel_basis([list(map(mul, col, D)) for col in zip(*ctx.OmegaTilde)])
    if not ker:
        return []
    S = [[D[k] * Li[k][l] - D[l] * Li[l][k] for l in range(m)] for k in range(m)]
    induced = intlinalg.mat_mul(ker, intlinalg.mat_mul(S, intlinalg.transpose(ker)))
    return list(intlinalg.skew_normal_form(induced).multipliers)


def psi_check(datum, word):
    """(ok, invariant_factors): ok iff every nonzero Smith invariant factor of
    the record's Psi is 1, and the same holds for its ReducedPsi; both Smith
    passes track neither transform."""
    ctx = _context(datum, tuple(word))
    factors = intlinalg.invariant_factors(ctx.Psi)
    ok = all(f == 1 for f in factors) and all(f == 1 for f in intlinalg.invariant_factors(ctx.ReducedPsi))
    return ok, factors
