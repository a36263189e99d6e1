import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub

import pytest

from qck import appendix_congruence, intlinalg, qtorus
from qck import slq2_tensor as sq
from qck import strings, weyl, wiring
from qck.qtorus import (
    QTorusElement,
    add_scalars,
    coeff_invert,
    coeff_mul,
    coeff_qpow,
    coeff_to_json,
)


def exact_det(M):
    """Determinant by exact rational elimination (test oracle)."""
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if A[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        inv = 1 / A[col][col]
        for i in range(col + 1, n):
            if A[i][col] != 0:
                f = A[i][col] * inv
                A[i] = [a - f * b for a, b in zip(A[i], A[col])]
    return det


def fraction_rank(M):
    """Rank by Gaussian elimination over Fractions (test oracle for the
    fraction-free rank)."""
    r, c = len(M), len(M[0]) if M else 0
    A = [[Fraction(x) for x in row] for row in M]
    rank = 0
    for col in range(c):
        piv = next((i for i in range(rank, r) if A[i][col] != 0), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        for i in range(rank + 1, r):
            if A[i][col] != 0:
                f = A[i][col] / A[rank][col]
                A[i] = [a - f * b for a, b in zip(A[i], A[rank])]
        rank += 1
        if rank == r:
            break
    return rank


def _row_reduce(M, ncols):
    """Gauss-Jordan elimination over Fractions on the first ncols columns of
    M, in place; returns the pivot columns."""
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        piv = next((i for i in range(row, len(M)) if M[i][col] != 0), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        M[row] = [x / M[row][col] for x in M[row]]
        for i in range(len(M)):
            if i != row and M[i][col] != 0:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[row])]
        pivots.append(col)
    return pivots


def solve_rational(A, rhs):
    """A solution over Q of A x = rhs (free variables 0), or None when there
    is none (test oracle for integrality of the Hermite column basis)."""
    c = len(A[0]) if A else 0
    M = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(A, rhs)]
    pivots = _row_reduce(M, c)
    if any(row[c] != 0 for row in M[len(pivots):]):
        return None
    x = [Fraction(0)] * c
    for row, col in zip(M, pivots):
        x[col] = row[c]
    return x


def invert_rational(M):
    """Exact inverse of a nonsingular square matrix, entries as Fractions
    (test oracle for intlinalg.invert_unitriangular)."""
    n = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    if len(_row_reduce(A, n)) != n:
        raise ValueError("singular matrix")
    return [row[n:] for row in A]


def fundamental_weight(datum, i):
    """omega_i in omega-coordinates."""
    return tuple(int(k == i - 1) for k in range(datum.n))


def apply_word(datum, word, mu):
    """s_{i_1} s_{i_2} ... s_{i_m} (mu), applied right to left (test oracle
    for the prefix walk that builds the Weyl and Psi matrices)."""
    for i in reversed(word):
        mu = weyl.reflect(datum, i, mu)
    return mu


def weyl_matrix(datum, word):
    """Matrix of the word's Weyl product on the weight lattice; column j holds
    the omega-coordinates of w(omega_j) (test oracle for W1 and W2)."""
    n = datum.n
    cols = [apply_word(datum, word, fundamental_weight(datum, j)) for j in range(1, n + 1)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def psi_matrices_by_apply_word(datum, word):
    """(Psi, ReducedPsi) with every prefix image rebuilt by apply_word (test
    oracle for the prefix walk of strings._context)."""
    w1, w2, _ = weyl.split_double_word(datum, word)
    n = datum.n
    W1, W2 = weyl_matrix(datum, w1), weyl_matrix(datum, w2)
    top = [[W1[t][s] for t in range(n)] for s in range(n)]
    bot = [[-W2[t][s] for t in range(n)] for s in range(n)]
    prefixes = {-1: (), 1: ()}
    cols = []
    omegas = [fundamental_weight(datum, s) for s in range(1, n + 1)]
    for e in word:
        i, sign = abs(e), (1 if e > 0 else -1)
        prefixes[sign] += (i,)
        w = prefixes[sign]
        for s in range(n):
            pair = apply_word(datum, w, omegas[s])[i - 1]
            top[s].append(pair if sign < 0 else 0)
            bot[s].append(0 if sign < 0 else pair)
        cols.append([apply_word(datum, w[::-1], mu)[i - 1] for mu in omegas])
    reduced = [[cols[t][s] for t in range(len(word))] for s in range(n)]
    return top + bot, reduced


def ker_rank(datum, w1_word, w2_word):
    """dim ker(w1 - w2) on the weight lattice, from the Weyl matrices of the
    two words (test oracle for the per-word rank_diff)."""
    m1 = weyl_matrix(datum, w1_word)
    m2 = weyl_matrix(datum, w2_word)
    return datum.n - fraction_rank([list(map(sub, r1, r2)) for r1, r2 in zip(m1, m2)])


def word_to_permutation(datum, word):
    """Permutation of [1, n+1] for a type-A word (one-line notation).

    The adjacent transposition s_i = (i, i+1) acts on positions; the product
    follows the same convention as apply_word.
    """
    n = datum.n
    perm = list(range(1, n + 2))
    for i in word:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


def is_reduced_by_inversions(datum, word):
    """Type-A oracle for weyl.is_reduced: the word's permutation has exactly
    len(word) inversions."""
    return weyl.inversion_count(word_to_permutation(datum, word)) == len(word)


def is_reduced_by_betas(datum, word):
    """Oracle for weyl.is_reduced on any Cartan datum: every
    beta_k = s_{j_1}...s_{j_{k-1}}(alpha_{j_k}) is a positive root."""
    return all(any(c > 0 for c in beta) for beta in weyl.beta_roots(datum, word))


def all_reduced_words_by_filter(datum, max_len):
    """Oracle for weyl.all_reduced_words: every one-letter extension of the
    previous length, kept if is_reduced_by_betas holds."""
    out = [[()]]
    for _ in range(max_len):
        out.append([w + (i,) for w in out[-1] for i in range(1, datum.n + 1)
                    if is_reduced_by_betas(datum, w + (i,))])
    return out


def all_double_words_by_split(datum, max_len):
    """Oracle for weyl.all_double_words: every one-letter extension of the
    previous length, in letter order -n..-1, 1..n, kept if split_double_word
    accepts it."""
    words, frontier = [()], [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for e in [*range(-datum.n, 0), *range(1, datum.n + 1)]:
                try:
                    weyl.split_double_word(datum, w + (e,))
                except weyl.NonReducedWord:
                    continue
                nxt.append(w + (e,))
        words.extend(nxt)
        frontier = nxt
    return words


def hermite_column_basis(M):
    """Basis of the lattice spanned by the columns of M, via column Hermite form.

    Returns a list of column vectors (each of length = row count of M); the
    list is empty when all columns vanish.  The basis is in column echelon
    form, canonical for a given column span.
    """
    r = len(M)
    basis = []
    row = 0
    work = [list(col) for col in zip(*M)]
    while row < r and work:
        nz = [col for col in work if col[row] != 0]
        rest = [col for col in work if col[row] == 0]
        while len(nz) > 1:
            nz.sort(key=lambda col: abs(col[row]))
            a = nz[0]
            out = [a]
            for col in nz[1:]:
                f = col[row] // a[row]
                newcol = [x - f * y for x, y in zip(col, a)]
                (rest if newcol[row] == 0 else out).append(newcol)
            nz = out
        if nz:
            lead = nz[0]
            if lead[row] < 0:
                lead = [-x for x in lead]
            # reduce earlier basis vectors against the new pivot
            for b in basis:
                if b[row] != 0:
                    f = b[row] // lead[row]
                    for i in range(r):
                        b[i] -= f * lead[i]
            basis.append(lead)
        work = [col for col in rest if any(col)]
        row += 1
    return basis


def skew_gram(D):
    """The 2m x 2m skew form g(a + b, a' + b') = a^T D b' - a'^T D b on
    concatenated exponent vectors."""
    m = len(D)
    G = intlinalg.zeros(2 * m, 2 * m)
    for k in range(m):
        G[k][m + k] = D[k]
        G[m + k][k] = -D[k]
    return G


def phi(mats):
    """Phi = [[Omega, Lambda], [0, I_m]], the 2m x (n+m) matrix whose columns
    are the exponent vectors of the generators (x-exponents on top,
    y-exponents below); its rank is m + rank OmegaTilde, the test oracle for
    the n_dim of strings.invariants."""
    n = len(mats.H) - len(mats.word)
    return ([o + l for o, l in zip(mats.Omega, mats.Lambda)]
            + [[0] * n + row for row in intlinalg.identity(len(mats.word))])


def phi_tilde(mats, n):
    """PhiTilde = [[0, I_m], [OmegaTilde, Lambda^{-1}]], the 2m x (n+m)
    matrix whose columns span the generator exponent lattice."""
    m = len(mats.word)
    out = intlinalg.zeros(2 * m, n + m)
    for s in range(m):
        out[s][n + s] = 1
        out[m + s][:n] = mats.OmegaTilde[s]
        out[m + s][n:] = mats.LambdaInv[s]
    return out


def lattice_cprime_multipliers(mats, n):
    """The centralizer multipliers from the exponent lattices themselves:
    Hermite bases of the generator lattice L and of the diagonal sublattice
    L0, the saturated annihilator of L0 inside L under the skew form, and the
    induced form's congruence normal form (test oracle for the closed form
    of strings.cprime_multipliers)."""
    m = len(mats.word)
    if m == 0:
        return []
    G = skew_gram(mats.D)
    L = intlinalg.transpose(hermite_column_basis(phi_tilde(mats, n)))  # 2m x (m+s)
    # diagonal sublattice: x-exponent zero, y-exponents spanned by OmegaTilde
    diag = intlinalg.zeros(m, n) + [row[:] for row in mats.OmegaTilde]
    L0t = hermite_column_basis(diag)  # the rows of L0^T
    # annihilator of L0 inside L: kernel of L0^T G L
    M0 = intlinalg.mat_mul(L0t, intlinalg.mat_mul(G, L))
    ker = intlinalg.kernel_basis(M0)
    if not ker:
        return []
    C = intlinalg.mat_mul(L, intlinalg.transpose(ker))  # centralizer lattice basis, 2m x r
    induced = intlinalg.mat_mul(intlinalg.transpose(C), intlinalg.mat_mul(G, C))
    return list(intlinalg.skew_normal_form(induced).multipliers)


def results_by_cell(datum, words, result):
    """{(W1, W2): {value: first word}} for value = result(datum, word), the
    cell keyed by the Weyl matrices of the double word's two factors.  A
    cell's invariants do not depend on which reduced double word spells it,
    so every cell should hold a single value."""
    cells = {}
    for word in words:
        value = result(datum, word)
        ctx = strings._context(datum, tuple(word))
        key = (tuple(map(tuple, ctx.W1)), tuple(map(tuple, ctx.W2)))
        cells.setdefault(key, {}).setdefault(value, word)
    return cells


def simplicity_record(datum, word):
    """invariants(datum, word) under the per-word checks of acceptance
    criterion C10, the Bareiss rank of H among them, as the record that must
    be constant on a cell: (m, s, d, k, rank H, multipliers)."""
    inv = strings.invariants(datum, word)
    letters = [abs(e) for e in word]
    distinct = len(set(letters)) == len(letters)
    assert (inv.s == inv.m) == distinct, word
    if inv.s == inv.m:
        assert inv.k == 0 and inv.multipliers == [], word
    w1, w2, _ = weyl.split_double_word(datum, word)
    assert inv.d == ker_rank(datum, w1, w2), word
    assert len(inv.multipliers) == inv.k, word
    # rank H, read from its skew normal form, against the Bareiss rank
    assert inv.rank_H == intlinalg.rank_over_Q(strings._context(datum, tuple(word)).H), word
    return inv.m, inv.s, inv.d, inv.k, inv.rank_H, tuple(inv.multipliers)


def congruence_record(rep):
    """A congruence_check report under the per-word checks of acceptance
    criterion C5, as the record that must be constant on a cell:
    (multipliers, ok)."""
    word = rep["word"]
    assert rep["q_congruence"], word
    assert rep["rank_ok"], word
    assert rep["multipliers_agree"], word
    return tuple(rep["multipliers"]), rep["ok"]


@pytest.fixture(scope="session")
def c5_congruence_sweep():
    """sweep(rank): ({word: congruence_check report}, built) over every
    double word of length <= 6 on the type A datum of that rank, computed
    once per session from an empty sign-class memo, so that acceptance
    criterion C5 and the cross-checks on its words share the reports; built
    lists the sign-class words whose matrices were built meanwhile."""
    @functools.cache
    def sweep(rank):
        datum, built = weyl.type_a(rank), []
        real = appendix_congruence.build_word_matrices
        appendix_congruence._sign_class.cache_clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(appendix_congruence, "build_word_matrices",
                          lambda datum, word: built.append(word) or real(datum, word))
            reports = {word: appendix_congruence.congruence_check(datum, word)
                       for word in weyl.all_double_words(datum, 6)}
        return reports, built
    return sweep


def split_cells(cells):
    """The cells of results_by_cell that hold more than one value."""
    return {key: values for key, values in cells.items() if len(values) > 1}


def accumulate(out, items):
    """Add the (key, coefficient) pairs of items into the sparse map out and
    return out; a key whose coefficient sums to zero is dropped.  A
    coefficient is copied on entry, then merged into in place (the nested
    sum of the test oracles)."""
    for key, c in items:
        cur = out.get(key)
        if cur is None:
            if c:
                out[key] = dict(c)
            continue
        for k, v in c.items():
            nv = cur.get(k, 0) + v
            if nv:
                cur[k] = nv
            else:
                del cur[k]
        if not cur:
            del out[key]
    return out


def coeff_shift(c, qshift):
    """The coefficient q^qshift c."""
    return {(e + qshift, g): v for (e, g), v in c.items()}


def nested_product(u, v):
    """u * v as the nested map {(a, b): coefficient}, by the nested product
    (test oracle for the flat product QTorusElement.__mul__): each pair of
    monomials gives coeff_mul(c1, c2) shifted by q^{-b^T D a'}, and
    accumulate sums the pairs."""
    products = []
    for (a1, b1), c1 in u.terms.items():
        bD = tuple(map(mul, b1, u.D))
        for (a2, b2), c2 in v.terms.items():
            products.append(((tuple(map(add, a1, a2)), tuple(map(add, b1, b2))),
                             coeff_shift(coeff_mul(c1, c2), -sum(map(mul, bD, a2)))))
    return accumulate({}, products)


def nested_to_json(m, D, terms):
    """The JSON of the element with the nested term map terms, written from
    that map (test oracle for QTorusElement.to_json)."""
    return {"m": m, "D": list(D),
            "terms": [{"a": list(a), "b": list(b), "coeff": coeff_to_json(c)}
                      for (a, b), c in sorted(terms.items())]}


def torus_neg(u):
    """-u, term by term through the nested view (no qck command negates or
    subtracts torus elements)."""
    return QTorusElement(u.m, u.D, {k: {t: -v for t, v in c.items()} for k, c in u.terms.items()})


def torus_sub(u, v):
    return u + torus_neg(v)


def tuple_flat(e):
    """The flat map of the element e keyed by (a, b, q_exp, gamma), a and b
    tuples: its packed keys unpacked through the nested view."""
    return {(a, b, qe, g): v for (a, b), c in e.terms.items() for (qe, g), v in c.items()}


def tuple_mul_into(out, left, right, D):
    """Add the product of the flat term maps left and right keyed by tuples
    (a, b, q_exp, gamma), in the torus with diagonal D, into out and return
    out (test oracle for the packed qtorus.mul_into): on monomials
    (x^a y^b)(x^a' y^b') = q^{-b^T D a'} x^{a+a'} y^{b+b'}."""
    right = right.items()
    for (a1, b1, e1, g1), v1 in left.items():
        bD = tuple(map(mul, b1, D))
        for (a2, b2, e2, g2), v2 in right:
            g = tuple(map(add, g1, g2)) if g1 and g2 else g1 or g2
            key = (tuple(map(add, a1, a2)), tuple(map(add, b1, b2)),
                   e1 + e2 - sum(map(mul, bD, a2)), g if any(g) else ())
            v = out.get(key, 0) + v1 * v2
            if v:
                out[key] = v
            else:
                del out[key]
    return out


def unpack_flat(flat, D, P=None):
    """The flat torus map with packed keys (A, B, q_exp, gamma) in the layout
    P (by default qtorus.layout(len(D))) keyed by tuples a and b."""
    P = P or qtorus.layout(len(D))
    return {(qtorus.unpack(A, P), qtorus.unpack_b(B, P, D), e, g): v
            for (A, B, e, g), v in flat.items()}


def pack_flat(flat, D, P=None):
    """The flat torus map keyed by tuples a and b, packed in the layout P."""
    P = P or qtorus.layout(len(D))
    return {(qtorus.pack(a, P), qtorus.pack(tuple(map(mul, b, D))[::-1], P), e, g): v
            for (a, b, e, g), v in flat.items()}


def pack_vector(vec, P):
    """The flat module vector keyed by tuples n, n packed in the layout P."""
    return {(qtorus.pack(n, P), e, g): v for (n, e, g), v in vec.items()}


def unpack_vector(vec, P):
    return {(qtorus.unpack(n, P), e, g): v for (n, e, g), v in vec.items()}


def q_commute_index(mono_u, mono_v, D):
    """Exponent e with u v = q^e v u for monomials u = x^a y^b, v = x^a' y^b':
    e = a^T D b' - a'^T D b (test oracle for the matrix H)."""
    (a, b), (a2, b2) = mono_u, mono_v
    return (sum(x * d * y for x, d, y in zip(a, D, b2))
            - sum(x * d * y for x, d, y in zip(a2, D, b)))


class InvalidString(ValueError):
    pass


@dataclass(frozen=True)
class WeightString:
    """A weight string of type word starting at start: mu_k = mu_{k-1} -
    steps_k * sgn(word_k) * alpha_{|word_k|} (test oracle for the columns of
    Phi and the entries of H, which strings builds directly)."""

    word: tuple
    start: tuple
    steps: tuple

    def __post_init__(self):
        if len(self.steps) != len(self.word):
            raise InvalidString("step count != word length")
        if any(j < 0 for j in self.steps):
            raise InvalidString("steps must be nonnegative")

    def weights(self, datum):
        """The full tuple (mu_0, ..., mu_m)."""
        mus = [tuple(self.start)]
        for e, j in zip(self.word, self.steps):
            sgn = 1 if e > 0 else -1
            alpha = datum.simple_roots[abs(e) - 1]
            mus.append(tuple(m - j * sgn * a for m, a in zip(mus[-1], alpha)))
        return mus

    def end(self, datum):
        return self.weights(datum)[-1]


def exponents(datum, ws):
    """The (a, b) exponent vectors of the monomial I(mu) attached to a string:
    a_k = (mu_{k-1} + mu_k, alpha^vee) / 2 and b_k = steps_k."""
    mus = ws.weights(datum)
    a = []
    for k, e in enumerate(ws.word):
        num = mus[k][abs(e) - 1] + mus[k + 1][abs(e) - 1]  # (mu, alpha^vee) is a coordinate
        if num % 2 != 0:
            raise InvalidString("half-integral exponent; string is inconsistent")
        a.append(num // 2)
    return tuple(a), tuple(ws.steps)


def constant_string(word, mu):
    return WeightString(word=tuple(word), start=tuple(mu), steps=(0,) * len(word))


def generator_strings(datum, word):
    """The constant strings at the fundamental weights, then the step
    strings; their exponent vectors are the columns of Phi."""
    word = tuple(word)
    out = [constant_string(word, fundamental_weight(datum, i))
           for i in range(1, datum.n + 1)]
    for k in range(len(word)):
        steps = tuple(int(t == k) for t in range(len(word)))
        out.append(WeightString(word=word, start=(0,) * datum.n, steps=steps))
    return out


def natural_weight(datum, j):
    """Weight of the j-th basis vector of the natural module in type A_n:
    omega_j - omega_{j-1}, with omega_0 = omega_{n+1} = 0."""
    if not 1 <= j <= datum.n + 1:
        raise IndexError(f"natural-module index {j} out of range 1..{datum.n + 1}")
    mu = [0] * datum.n
    if j <= datum.n:
        mu[j - 1] += 1
    if j >= 2:
        mu[j - 2] -= 1
    return tuple(mu)


def monomial_to_string(datum, word, nu, a, b):
    """The string with start nu and steps b, when its a-vector is a, else
    None: a certificate that x^a y^b is a weight-string monomial."""
    word = tuple(word)
    if len(a) != len(word) or len(b) != len(word) or any(j < 0 for j in b):
        return None
    ws = WeightString(word=word, start=tuple(nu), steps=tuple(b))
    return ws if exponents(datum, ws)[0] == tuple(a) else None


def dense_mat_mul(A, B):
    """Every entry as the dot product of a row of A and a column of B (test
    oracle for intlinalg.mat_mul, which skips zero entries of A)."""
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def full_scan_pivot(A, rows, first_col):
    """The first entry of least nonzero absolute value among A[i][first_col(i):],
    i in rows, found by scanning every entry (test oracle for
    intlinalg._least_nonzero, which stops at the first unit)."""
    best = None
    for i in rows:
        for j in range(first_col(i), len(A[i])):
            if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                best = (i, j)
    return best


def sweeping_smith_normal_form(M):
    """(U, D, V) with U M V = D by the elimination that goes on sweeping
    row and column t with a new, smaller pivot after a swap (test oracle for
    intlinalg.smith_normal_form, which restarts the sweep; D must agree).
    Its U and V can grow by thousands of bits on 8 x 8 inputs."""
    r, c = intlinalg.shape(M)
    D = intlinalg.copy_matrix(M)
    U, V = intlinalg.identity(r), intlinalg.identity(c)

    def row_op(i, j, f):  # row_i -= f*row_j
        D[i] = [a - f * b for a, b in zip(D[i], D[j])]
        U[i] = [a - f * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, f):  # col_i -= f*col_j
        for row in D:
            row[i] -= f * row[j]
        for row in V:
            row[i] -= f * row[j]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D + V:
            row[i], row[j] = row[j], row[i]

    for t in range(min(r, c)):
        best = full_scan_pivot(D, range(t, r), lambda i: t)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, r):
                if D[i][t] != 0:
                    row_op(i, t, D[i][t] // D[t][t])
                    if D[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, c):
                if D[t][j] != 0:
                    col_op(j, t, D[t][j] // D[t][t])
                    if D[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            off = next(((i, j) for i in range(t + 1, r) for j in range(t + 1, c)
                        if D[i][j] % D[t][t] != 0), None)
            if off is None:
                break
            row_op(t, off[0], -1)
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
    return U, D, V


def smith_sweep_matrix(r, c, b, seed):
    """The seeded r x c matrix with entries drawn from 0, +-1 and +-b on which
    the sweeping Smith elimination blows up (its U and V reach thousands of
    bits, or it runs for seconds) for b near 10^6 at 6 x 7, b = 15 at 8 x 8
    and b = 8 at 10 x 10."""
    rng = random.Random(f"smith:{r}x{c}:{seed}")
    return [[rng.choice((0, 1, -1, b, -b)) for _ in range(c)] for _ in range(r)]


def full_skew_verification(H, nf):
    """True iff R^T N R equals H, N = diag(m1 S, ..., ml S, 0), with both
    products and the comparison done in full (test oracle for the triangle
    check of intlinalg.skew_normal_form)."""
    R = nf.R
    target = intlinalg.block_diag(*([[[0, m], [-m, 0]] for m in nf.multipliers]
                                    + [intlinalg.zeros(nf.zero_dim, nf.zero_dim)]))
    return not H or dense_mat_mul(intlinalg.transpose(R), dense_mat_mul(target, R)) == H


def column_sweep_skew_normal_form(H):
    """(Q, multipliers, zero_dim, nonunit) by the elimination that carries Q
    itself, clears a pivot's two rows column by column and checks the dense
    product Q^T H Q (test oracle for intlinalg.skew_normal_form, which
    carries R = Q^-1 and clears a pivot that divides both rows in one rank-2
    pass); nonunit counts the clearing sweeps made with a pivot other than
    +-1."""
    n = len(H)
    A = intlinalg.copy_matrix(H)
    Q = intlinalg.identity(n)

    def col_add(i, j, f):  # col_i += f*col_j, with the congruent row op
        for row in A:
            row[i] += f * row[j]
        A[i] = [a + f * b for a, b in zip(A[i], A[j])]
        for row in Q:
            row[i] += f * row[j]

    def swap(i, j):
        for row in A + Q:
            row[i], row[j] = row[j], row[i]
        A[i], A[j] = A[j], A[i]

    s = nonunit = 0
    while s + 1 < n:
        best = full_scan_pivot(A, range(s, n), lambda i: i + 1)
        if best is None:
            break
        if best[0] != s:
            swap(s, best[0])
        if best[1] != s + 1:
            swap(s + 1, best[1])
        while True:
            p = A[s][s + 1]
            nonunit += abs(p) != 1
            restart = False
            for r, k, sign in ((s, s + 1, -1), (s + 1, s, 1)):  # clear rows s, s+1 beyond s+1
                for j in range(s + 2, n):
                    if A[r][j] != 0:
                        col_add(j, k, sign * (A[r][j] // p))
                        if A[r][j] != 0:
                            swap(k, j)
                            restart = True
                            break
                if restart:
                    break
            if restart:
                continue
            off = next(((i, j) for i in range(s + 2, n) for j in range(i + 1, n)
                        if A[i][j] % p != 0), None)
            if off is None:
                break
            col_add(s, off[0], 1)
        if A[s][s + 1] < 0:
            swap(s, s + 1)
        s += 2
    mult = [A[i][i + 1] for i in range(0, s, 2)]
    target = intlinalg.block_diag(*([[[0, m], [-m, 0]] for m in mult]
                                    + [intlinalg.zeros(n - s, n - s)]))
    if n and dense_mat_mul(intlinalg.transpose(Q), dense_mat_mul(H, Q)) != target:
        raise AssertionError("column sweep: Q^T H Q is not the normal form")
    return Q, mult, n - s, nonunit


def enumerate_families(diagram, A, B):
    """All vertex-disjoint path families from levels A to levels B, each a
    tuple of level traces in start-level order; vertex disjointness is the
    traces being pairwise distinct at every column boundary (the explicit
    Lindstrom oracle for the transfer pass of wiring)."""
    cols = diagram.columns
    out = []
    target = tuple(sorted(set(B)))

    def rec(k, levels, traces):
        if k == len(cols):
            if tuple(sorted(levels)) == target:
                out.append(tuple(tuple(tr) for tr in traces))
            return
        options = [wiring._column_moves(lv, *cols[k]) for lv in levels]
        for choice in itertools.product(*options):
            nxt = tuple(c[0] for c in choice)
            if len(set(nxt)) != len(nxt):
                continue
            for tr, lv in zip(traces, nxt):
                tr.append(lv)
            rec(k + 1, nxt, traces)
            for tr in traces:
                tr.pop()

    A = sorted(set(A))
    rec(0, tuple(A), [[lv] for lv in A])
    return out


def family_weight(diagram, family, D):
    """I(P): the torus product, in start-level order, of the path monomials,
    factor k of a path given by the edge it takes in column k."""
    m = len(diagram.word)
    out = QTorusElement.one(m, D)
    for path in family:
        a, b = zip(*(dict(wiring._column_moves(path[k], *col))[path[k + 1]]
                     for k, col in enumerate(diagram.columns))) if m else ((), ())
        out = out * QTorusElement.monomial(m, D, a, b)
    return out


def family_sum(datum, word, A, B):
    """Image of minor(A|B) as the sum of family weights; x_ij is A = (i,),
    B = (j,)."""
    diagram = wiring.build_diagram(datum.n, word)
    D = wiring.torus_diagonal(datum, word)
    out = QTorusElement(len(word), D)
    for family in enumerate_families(diagram, A, B):
        out = out + family_weight(diagram, family, D)
    return out


def permutation_expansion_image(datum, word, A, B):
    """Image of minor(A|B) as the permutation expansion
    sum_tau (-q)^{l(tau)} x_{a_1 b_tau(1)} ... x_{a_k b_tau(k)} in the
    generator images, every permutation multiplied out on its own (test
    oracle for the row expansion wiring.minor_image_oracle, and in C2 for
    the path-family images)."""
    gens = wiring.generator_images(datum, word)
    D = wiring.torus_diagonal(datum, word)
    out = QTorusElement(len(word), D)
    for c, labels in wiring.minor_expansion(tuple(sorted(A)), tuple(sorted(B))):
        term = QTorusElement.monomial(len(word), D, (0,) * len(word), (0,) * len(word), c)
        for label in labels:
            term = term * gens[label]
            if not term.flat:
                break
        out = out + term
    return out


def scaled(u, coeff):
    """u times the scalar coeff, a coefficient {(q_exp, gamma): rational}."""
    return u * QTorusElement.monomial(u.m, u.D, (0,) * u.m, (0,) * u.m, coeff)


def flat_vector(vec):
    """The flat module vector {(n, q_exp, gamma): rational} of the nested
    vector {n: coefficient}."""
    return {(n, e, g): v for n, c in vec.items() for (e, g), v in c.items()}


def nested_gamma_power(mod, b):
    """Coefficient of prod_k gamma_k^{b_k} in the tensor module mod, built
    by repeated coeff_mul (test oracle for gamma^b in
    slq2_tensor.torus_action)."""
    g = [0] * mod.m
    extra = coeff_qpow(0)
    for k, bk in enumerate(b):
        if bk == 0:
            continue
        if mod.params[k] is None:
            g[k] = bk
        else:
            c = mod.params[k] if bk > 0 else coeff_invert(mod.params[k])
            for _ in range(abs(bk)):
                extra = coeff_mul(extra, c)
    if any(g):
        extra = coeff_mul(extra, {(0, tuple(g)): 1})
    return extra


def nested_monomial_action(mod, mono, vec):
    """x^a y^b acting on the nested vector {n: coeff}: y^b is diagonal, x^a
    shifts."""
    a, b = mono
    gcoeff = nested_gamma_power(mod, b)
    bD = tuple(map(mul, b, mod.D))
    return accumulate({}, [(tuple(map(sub, n, a)),
                            coeff_mul(coeff_mul(c, gcoeff), coeff_qpow(sum(map(mul, bD, n)))))
                           for n, c in vec.items()])


def nested_element_action(mod, u, vec):
    """The torus element u, or its nested terms, acting on the nested vector
    vec, term by term (test oracle for TensorModule.element_action)."""
    out = {}
    for (a, b), c in (u.terms if isinstance(u, QTorusElement) else u).items():
        accumulate(out, [(key, coeff_mul(pc, c))
                         for key, pc in nested_monomial_action(mod, (a, b), vec).items()])
    return out


def typical_action(spec, generator, i, d=1):
    """Action of one quantum-matrix generator on the basis vector e_i of a
    typical rank-1 module, as a list of (index, coefficient) pairs, q read
    as q^d and a formal gamma or eta in gamma slot 0 or 1 of two: the
    explicit basis formulas, in terms of z = q^{d i} (test oracle for
    slq2_tensor.typical_images)."""
    lo, hi = spec.index_domain()
    if (lo is not None and i < lo) or (hi is not None and i > hi):
        raise IndexError(f"index {i} outside the domain of {spec.kind}")
    kind, z = spec.kind, coeff_qpow(d * i)

    def param(k, power=1):  # gamma (k = 0) or eta (k = 1), to the power +-1
        p = (spec.gamma, spec.eta)[k]
        if p is None:
            return {(0, (power, 0) if k == 0 else (0, power)): 1}
        return p if power > 0 else coeff_invert(p)

    if generator in ("x11", "x22"):
        if kind == ("HighestWeight" if generator == "x11" else "LowestWeight"):  # 1 - q^{2di}
            t = coeff_mul(coeff_qpow(0, -1), coeff_mul(z, z))
        elif kind == "Laurent" and generator == "x11":  # 1 + gamma eta q^{d(2i-1)}
            t = coeff_mul(coeff_mul(param(0), param(1)), coeff_mul(coeff_mul(z, z), coeff_qpow(-d)))
        else:
            t = {}
        c = add_scalars(coeff_qpow(0), t.items())
        return [(i - 1 if generator == "x11" else i + 1, c)] if c else []
    if (generator, kind) in (("x12", "Mminus"), ("x21", "Mplus")):
        return []
    if generator == "x12":  # eta q^{di}, for LowestWeight gamma q^{di}
        return [(i, coeff_mul(param(0 if kind == "LowestWeight" else 1), z))]
    if kind == "HighestWeight":  # x21 e_i = -eta^{-1} q^{d(i+1)} e_i
        return [(i, coeff_mul(param(1, -1), coeff_mul(z, coeff_qpow(d, -1))))]
    if kind == "LowestWeight":  # x21 e_i = -gamma^{-1} q^{d(i-1)} e_i
        return [(i, coeff_mul(param(0, -1), coeff_mul(z, coeff_qpow(-d, -1))))]
    return [(i, coeff_mul(param(0), z))]  # x21 e_i = gamma q^{di} e_i


def nested_apply_generator(spec, generator, vec, d=1):
    """Linear extension of typical_action to nested vectors {index: coeff}."""
    return accumulate({}, [(j, coeff_mul(c, ac)) for i, c in vec.items()
                           for j, ac in typical_action(spec, generator, i, d=d)])


def nested_relation_difference(lhs, rhs, act, d=1):
    """lhs - rhs of one relation as a nested vector, where act(word) is the
    nested vector of a word and q is read as q^d (test oracle for
    wiring.relation_differences)."""
    out = {}
    for sign, side in ((1, lhs), (-1, rhs)):
        for c, word in side:
            acted = act(word).items()
            for (e, _), v in c.items():
                e, v = d * e, sign * v
                accumulate(out, [(key, {(qe + e, g): x * v for (qe, g), x in cx.items()})
                                 for key, cx in acted])
    return out


def nested_word_action(start, apply):
    """act(word): the nested vector x_{l_1} ... x_{l_r} start, walked right
    to left one apply(label, vec) at a time, each word on its own with no
    shared suffixes (test oracle for the word values of
    wiring.relation_differences)."""
    @functools.lru_cache(maxsize=None)
    def act(word):
        vec = start
        for label in reversed(word):
            vec = apply(label, vec)
        return vec

    return act


def nested_nonzero_at(diff, zq):
    """Whether the nested difference diff survives the substitution of the
    q-powers zq for its last len(zq) gamma slots (test oracle for
    slq2_tensor._nonzero_at)."""
    for c in diff.values():
        out = {}
        for (e, g), v in c.items():
            k = len(g) - len(zq)  # a key with no gamma slots has g = ()
            key = (e + sum(map(mul, g[k:], zq)), g[:k] if any(g[:k]) else ())
            out[key] = out.get(key, 0) + v
        if any(out.values()):
            return True
    return False


def vec_sub(v1, v2):
    """v1 - v2 for module vectors {index: coefficient}."""
    minus_v2 = [(k, coeff_mul(c, coeff_qpow(0, -1))) for k, c in v2.items()]
    return accumulate(accumulate({}, v1.items()), minus_v2)


def vec_eq(v1, v2):
    return not vec_sub(v1, v2)


def ball_tensor_relations(datum, word, N, params=None):
    """The tensor relation suite acted out by the nested action on every
    basis vector with max |n_k| <= N (test oracle for the formal-Z check of
    slq2_tensor.verify_tensor_relations)."""
    mod = sq.TensorModule(datum, word, params=params)
    n1 = datum.n + 1
    g = {ij: u.terms for ij, u in wiring.generator_images(datum, word).items()}  # unpacked once
    instances = []
    for i in range(1, n1 + 1):
        for j in range(1, n1 + 1):
            for l in range(j + 1, n1 + 1):
                instances.append((f"x{i}{j} x{i}{l} = q x{i}{l} x{i}{j}",
                                  [(g[(i, j)], g[(i, l)])], [(g[(i, l)], g[(i, j)])], 1))
            for k in range(i + 1, n1 + 1):
                instances.append((f"x{i}{j} x{k}{j} = q x{k}{j} x{i}{j}",
                                  [(g[(i, j)], g[(k, j)])], [(g[(k, j)], g[(i, j)])], 1))
    for i in range(1, n1 + 1):
        for k in range(i + 1, n1 + 1):
            for j in range(1, n1 + 1):
                for l in range(j + 1, n1 + 1):
                    instances.append((f"x{i}{l} x{k}{j} = x{k}{j} x{i}{l}",
                                      [(g[(i, l)], g[(k, j)])], [(g[(k, j)], g[(i, l)])], 0))

    failures = []
    ball = list(itertools.product(range(-N, N + 1), repeat=mod.m))
    for n in ball:
        base = {n: coeff_qpow(0)}
        acted = {}

        def act2(u1, u2):
            key = (id(u1), id(u2))
            if key not in acted:
                acted[key] = nested_element_action(mod, u1, nested_element_action(mod, u2, base))
            return acted[key]

        for name, lhs_pairs, rhs_pairs, qexp in instances:
            lhs = {}
            for u1, u2 in lhs_pairs:
                accumulate(lhs, act2(u1, u2).items())
            rhs = {}
            for u1, u2 in rhs_pairs:
                accumulate(rhs, act2(u1, u2).items())
            if qexp:
                rhs = {key: coeff_mul(c, coeff_qpow(qexp)) for key, c in rhs.items()}
            if not vec_eq(lhs, rhs):
                failures.append((name, n))
        # [x_ij, x_kl] = (q - q^{-1}) x_il x_kj for i<k, j<l
        for i in range(1, n1 + 1):
            for k in range(i + 1, n1 + 1):
                for j in range(1, n1 + 1):
                    for l in range(j + 1, n1 + 1):
                        lhs = vec_sub(act2(g[(i, j)], g[(k, l)]),
                                          act2(g[(k, l)], g[(i, j)]))
                        mid = act2(g[(i, l)], g[(k, j)])
                        rhs = vec_sub(
                            {key: coeff_mul(c, coeff_qpow(1)) for key, c in mid.items()},
                            {key: coeff_mul(c, coeff_qpow(-1)) for key, c in mid.items()},
                        )
                        if not vec_eq(lhs, rhs):
                            failures.append((f"[x{i}{j}, x{k}{l}] commutator", n))
        det = {}
        for tau in itertools.permutations(range(n1)):
            inv = weyl.inversion_count(tau)
            term = dict(base)
            for s in range(n1 - 1, -1, -1):
                term = nested_element_action(mod, g[(s + 1, tau[s] + 1)], term)
            term = {key: coeff_mul(c, {(inv, ()): (-1) ** inv}) for key, c in term.items()}
            accumulate(det, term.items())
        if not vec_eq(det, base):
            failures.append(("det_q = 1", n))
    return {"ok": not failures, "failures": failures[:20], "checked": len(ball)}


def ball_typical_relations(spec, N, d=1):
    """The rank-1 relation suite acted out by the nested action on each basis
    vector e_i of the truncated domain (test oracle for the formal-Z check
    of slq2_tensor.verify_typical_relations)."""
    lo, hi = spec.index_domain()
    lo = -N if lo is None else max(lo, -N)
    hi = N if hi is None else min(hi, N)

    failures = []
    bad = spec.illegal_laurent_index(d=d, bound=N)
    for i in range(lo, hi + 1):
        act = nested_word_action({i: coeff_qpow(0)},
                                 lambda ij, vec: nested_apply_generator(spec, "x%d%d" % ij, vec, d=d))
        failures += [(name, i) for name, lhs, rhs in wiring.quantum_matrix_relations(2)
                     if nested_relation_difference(lhs, rhs, act, d=d)]
        if i == bad:
            failures.append(("laurent coefficient 1 + gamma eta q^{2i-1} vanishes", i))
    return {"ok": not failures, "failures": failures, "range": (lo, hi)}


@pytest.fixture(scope="session")
def A1():
    return weyl.type_a(1)


@pytest.fixture(scope="session")
def A2():
    return weyl.type_a(2)


@pytest.fixture(scope="session")
def A3():
    return weyl.type_a(3)


def random_double_word(datum, rng, max_len):
    """Random valid signed double word with length uniform in [0, max_len]."""
    target = rng.randint(0, max_len)
    word = ()
    letters = [e for e in range(-datum.n, datum.n + 1) if e]
    attempts = 0
    while len(word) < target and attempts < 50 * max_len:
        attempts += 1
        cand = word + (rng.choice(letters),)
        try:
            weyl.split_double_word(datum, cand)
        except weyl.NonReducedWord:
            continue
        word = cand
    return word


# one line per acceptance criterion, echoed after the run (see test_acceptance)
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def _fresh_word_context():
    """Start each test with an empty per-word memo, so that a layer a test
    replaces is really called and call counts do not depend on test order."""
    strings._context.cache_clear()
    appendix_congruence._sign_class.cache_clear()
    wiring._word_images.cache_clear()
