"""Output checks made apart from qck.

Everything here is computed by the benchmark itself: type-A reflections and
reduced words, exact rank and determinant, integer matrix products, the
excluded Laurent index, and the images published in the paper's example.
Nothing in this module imports qck. Each checker returns None when the
output is right and a one-line reason when it is not.
"""

from fractions import Fraction

# ---------------------------------------------------------------------------
# integer and rational matrices


def matmul(A, B):
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def rank(M):
    """Rank over Q by Fraction elimination."""
    A = [[Fraction(x) for x in row] for row in M]
    r = 0
    for col in range(len(A[0]) if A else 0):
        piv = next((i for i in range(r, len(A)) if A[i][col]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, len(A)):
            if A[i][col]:
                f = A[i][col] / A[r][col]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        r += 1
    return r


def det(M):
    """Determinant of a square integer matrix by fraction-free elimination."""
    A = [list(row) for row in M]
    n = len(A)
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if A[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1] if n else 1


def is_unimodular(M):
    return len(M) == len(M[0]) and det(M) in (1, -1)


# ---------------------------------------------------------------------------
# type A_n Weyl group on the fundamental-weight coordinates


def reflect(n, i, mu):
    """s_i(mu) = mu - <mu, alpha_i^vee> alpha_i, alpha_i = (.., -1, 2, -1, ..)."""
    c = mu[i - 1]
    out = list(mu)
    out[i - 1] -= 2 * c
    if i > 1:
        out[i - 2] += c
    if i < n:
        out[i] += c
    return out


def weyl_matrix(n, word):
    """Columns are w(omega_j) for w = s_{i1} ... s_{il}."""
    cols = []
    for j in range(n):
        mu = [1 if t == j else 0 for t in range(n)]
        for i in reversed(word):
            mu = reflect(n, i, mu)
        cols.append(mu)
    return transpose(cols)


def kernel_dim(n, w1, w2):
    """dim ker(w1 - w2) on the weight lattice."""
    W1, W2 = weyl_matrix(n, w1), weyl_matrix(n, w2)
    return n - rank([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(W1, W2)])


def is_reduced(word):
    """A type-A word is reduced iff every letter adds an inversion."""
    perm = list(range(max(word, default=0) + 1))
    for i in word:
        if perm[i - 1] > perm[i]:
            return False
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return True


def is_double_word(word):
    return is_reduced([-e for e in word if e < 0]) and is_reduced([e for e in word if e > 0])


def count_words(n, max_len, signed):
    """Number of reduced (signed: double) words of length <= max_len in rank n."""
    letters = [e for e in range(-n, n + 1) if e] if signed else list(range(1, n + 1))
    valid = is_double_word if signed else is_reduced
    frontier, total = [()], 1
    for _ in range(max_len):
        frontier = [w + (e,) for w in frontier for e in letters if valid(w + (e,))]
        total += len(frontier)
    return total


def random_double_word(rng, n, length, neg=None, pos=None):
    """Seeded double word of `length` letters, or shorter when no letter can
    extend it; negative letters come from `neg`, positive ones from `pos`
    (default: all of 1..n)."""
    neg = range(1, n + 1) if neg is None else neg
    pos = range(1, n + 1) if pos is None else pos
    letters = [-i for i in neg] + list(pos)
    word = ()
    while len(word) < length:
        options = [e for e in letters if is_double_word(word + (e,))]
        if not options:
            break
        word += (rng.choice(options),)
    return word


# ---------------------------------------------------------------------------
# the paper's example: rank 2, word 1,2,1,-1,-2 (acceptance criterion C1)

REF_WORD = (1, 2, 1, -1, -2)


def _terms(*monomials):
    return {(a, b): {(q, ()): 1} for a, b, q in monomials}


REF_IMAGES = {
    "x21^2 * x33 * minor(23|23)": _terms(((-3, 1, -3, -1, -1), (0, 0, 0, 2, 0), 2)),
    "x33 * minor(23|23)": _terms(((-1, -1, -1, -1, -1), (0, 0, 0, 0, 0), 0)),
    "minor(13|12)": _terms(
        ((0, 0, -1, 0, 0), (1, 0, 0, 1, 1), 0),
        ((1, -1, 0, 0, 0), (0, 0, 1, 1, 1), 0),
        ((1, -1, 1, 1, 0), (0, 0, 0, 0, 1), 0),
    ),
    "minor(12|12)": _terms(
        ((0, 0, 0, 0, 0), (0, 1, 1, 1, 1), 0),
        ((0, 0, 1, 1, 0), (0, 1, 0, 0, 1), 0),
        ((0, 1, 0, 0, 1), (0, 0, 0, 0, 0), 0),
    ),
    "x12": _terms(
        ((0, 0, 0, 0, 0), (1, 1, 0, 0, 1), 0),
        ((0, 1, -1, -1, 1), (1, 0, 0, 0, 0), 0),
        ((1, 0, 0, -1, 1), (0, 0, 1, 0, 0), 0),
    ),
}


def one_terms(m):
    return {((0,) * m, (0,) * m): {(0, ()): 1}}


def terms_from_json(data):
    """Element JSON ({"m", "D", "terms"}) as {(a, b): {(q, gamma): rational}}."""
    return {
        (tuple(t["a"]), tuple(t["b"])): {
            (c["q"], tuple(c["gamma"])): Fraction(c["num"], c["den"]) for c in t["coeff"]
        }
        for t in data["terms"]
    }


# ---------------------------------------------------------------------------
# rank 1, word -1,1: the tensor module of two rank-1 factors
#
# The quantum matrix maps to the product L(x1, y1) U(x2, y2) of the factor of
# the negative letter, L = [[x1, 0], [y1, x1^-1]], and that of the positive
# letter, U = [[x2, y2], [0, x2^-1]]. Torus monomials are x^a y^b, written
# (a, b); variables of different factors commute, so every coefficient is 1.

RANK1_DOUBLE_WORD = (-1, 1)
RANK1_DOUBLE_IMAGES = {
    "x11": {((1, 1), (0, 0)): {(0, (0, 0)): 1}},
    "x22": {((-1, -1), (0, 0)): {(0, (0, 0)): 1}, ((0, 0), (1, 1)): {(0, (0, 0)): 1}},
}


def coeff_product(c1, c2):
    """Product of coefficients {(q exponent, gamma exponents): rational}."""
    out = {}
    for (e1, g1), v1 in c1.items():
        for (e2, g2), v2 in c2.items():
            key = (e1 + e2, tuple(x + y for x, y in zip(g1, g2)))
            out[key] = out.get(key, 0) + v1 * v2
    return {key: v for key, v in out.items() if v}


def tensor_action(terms, vector, D):
    """x^a y^b on e_n is gamma^b q^(sum_k b_k D_k n_k) e_(n - a), extended
    linearly; vector is {n: coefficient}."""
    out = {}
    for (a, b), c in terms.items():
        for n, v in vector.items():
            scale = {(sum(bk * dk * nk for bk, dk, nk in zip(b, D, n)), tuple(b)): 1}
            key = tuple(nk - ak for nk, ak in zip(n, a))
            total = out.setdefault(key, {})
            for mono, value in coeff_product(coeff_product(v, c), scale).items():
                total[mono] = total.get(mono, 0) + value
    return {n: {k: v for k, v in c.items() if v} for n, c in out.items() if any(c.values())}


def vector_from_json(items, m):
    """`qck module act` output as {n: {(q, gamma): rational}}, gamma padded to m."""
    return {
        tuple(item["n"]): {
            (c["q"], tuple(c["gamma"]) + (0,) * (m - len(c["gamma"]))): Fraction(c["num"], c["den"])
            for c in item["coeff"]
        }
        for item in items
    }


def vector_to_json(vector):
    return [
        {"n": list(n), "coeff": [{"q": e, "gamma": list(g) if any(g) else [],
                                  "num": v.numerator, "den": v.denominator}
                                 for (e, g), v in c.items()]}
        for n, c in vector.items()
    ]


def check_ascii_diagram(n, word, text):
    """Check `qck diagram` ascii output: one line per level n+1 .. 1, each
    with one cell per letter. Letter e crosses levels |e| and |e|+1, leaning
    '/' when e > 0 and '\\' when e < 0; every other cell is a plain wire."""
    lines = text.rstrip("\n").split("\n")
    if len(lines) != n + 1:
        return f"{len(lines)} lines, expected {n + 1} levels"
    for line, level in zip(lines, range(n + 1, 0, -1)):
        fields = line.split()
        if fields[0] != str(level) or fields[-1] != str(level) or len(fields) != len(word) + 2:
            return f"level {level}: {line!r} does not have {len(word)} cells"
        for e, cell in zip(word, fields[1:-1]):
            crossing = level in (abs(e), abs(e) + 1)
            lean = "/" if e > 0 else "\\"
            if (lean in cell) != crossing or (not crossing and cell != "---"):
                return f"level {level}, letter {e}: cell {cell!r}"
    return None


# ---------------------------------------------------------------------------
# checkers


def check_analysis(n, word, a):
    """Invariants of one word, keyed as in `qck analyze`: m, n, d, s, k,
    multipliers, psi_ok, psi_factors."""
    m = len(word)
    supp = {abs(e) for e in word}
    w1 = [-e for e in word if e < 0]
    w2 = [e for e in word if e > 0]
    d = kernel_dim(n, w1, w2)
    if a["m"] != m or a["n"] != m + len(supp):
        return f"n = {a['n']}, expected m + |supp| = {m + len(supp)}"
    if a["d"] != d:
        return f"d = {a['d']}, expected dim ker(w1 - w2) = {d}"
    if a["s"] != len(supp):  # so s = m exactly when the letters are distinct
        return f"s = {a['s']}, expected |supp| = {len(supp)}"
    if a["k"] < 0 or len(a["multipliers"]) != a["k"]:
        return f"k = {a['k']} with {len(a['multipliers'])} multipliers"
    if not a["psi_ok"] or any(f != 1 for f in a["psi_factors"]):
        return f"Psi factors {a['psi_factors']}"
    return None


def check_congruence(report):
    for key in ("q_congruence", "rank_ok", "multipliers_agree"):
        if not report[key]:
            return f"congruence check {key} fails"
    return None


def check_images(n, word, minors, relations, extra):
    """Minor images against the permutation-expansion oracle, det_q = 1,
    every relation, and on the reference word the paper's values."""
    for A, B, image, oracle in minors:
        if image.terms != oracle.terms:
            return f"minor({A}|{B}) differs from its permutation expansion"
        if len(A) == n + 1 and image.terms != one_terms(len(word)):
            return "det_q is not 1"
    if not any(name == "det_q = 1" for name, _ in relations):
        return "relation report lacks det_q = 1"
    bad = [name for name, ok in relations if not ok]
    if bad:
        return f"relations fail: {bad[:3]}"
    for label, image in extra.items():
        if image.terms != REF_IMAGES[label]:
            return f"{label} differs from the paper's value"
    return None


def laurent_excluded_index(k):
    """gamma eta = -q^{2k+1} makes 1 + gamma eta q^{2i-1} vanish at i = -k."""
    return -k


def check_relation_report(report, excluded_index=None):
    """A relation suite: no failure, or exactly the excluded Laurent index."""
    failures = [tuple(f) for f in report["failures"]]
    if excluded_index is None:
        return None if report["ok"] and not failures else f"failures {failures[:3]}"
    indices = {f[1] for f in failures}
    if report["ok"] or indices != {excluded_index}:
        return f"expected failure at index {excluded_index} only, got {failures[:3]}"
    return None


def check_smith(M, out):
    U, D, V = out["U"], out["D"], out["V"]
    if matmul(matmul(U, M), V) != D:
        return "U M V != D"
    if not (is_unimodular(U) and is_unimodular(V)):
        return "U or V is not unimodular"
    r = min(len(D), len(D[0]))
    if any(D[i][j] for i in range(len(D)) for j in range(len(D[0])) if i != j):
        return "D is not diagonal"
    diag = [D[i][i] for i in range(r)]
    nz = [x for x in diag if x]
    if any(x < 0 for x in diag) or diag[: len(nz)] != nz:
        return f"diagonal {diag} is not nonnegative with zeros last"
    if any(b % a for a, b in zip(nz, nz[1:])):
        return f"diagonal {diag} is not a divisibility chain"
    if out["invariant_factors"] != diag:
        return "invariant_factors differ from the diagonal of D"
    return None


def check_skew(H, out):
    Q, mult, zero = out["Q"], out["multipliers"], out["zero_dim"]
    n = len(H)
    if 2 * len(mult) + zero != n or any(x <= 0 for x in mult):
        return f"multipliers {mult} with radical {zero} do not fit size {n}"
    if any(b % a for a, b in zip(mult, mult[1:])):
        return f"multipliers {mult} are not a divisibility chain"
    target = [[0] * n for _ in range(n)]
    for t, x in enumerate(mult):
        target[2 * t][2 * t + 1] = x
        target[2 * t + 1][2 * t] = -x
    if matmul(matmul(transpose(Q), H), Q) != target:
        return "Q^T H Q is not the normal form"
    if not is_unimodular(Q):
        return "Q is not unimodular"
    return None
