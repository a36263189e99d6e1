"""Exact integer and rational linear algebra.

Matrices are lists of lists of Python ints (rows), so every computation is
arbitrary precision.  Provides Smith normal form with transformation
matrices, saturated integer kernels, rank over Q by fraction-free (Bareiss)
elimination, unitriangular inverses by forward substitution, and the
congruence normal form of skew-symmetric integer matrices.

Products build each output row as a combination of the rows of the right
factor, skipping zero coefficients: the matrices here are block-sparse or
unitriangular.  Both normal forms pick as pivot the first entry of least
nonzero absolute value and stop looking at the first unit, which no later
entry can beat.  One Smith core tracks only the transforms its caller
reads: invariant_factors neither U nor V, kernel_basis only V, and
smith_normal_form, which tracks both, checks U M V = D.

The skew normal form carries R = Q^-1, so a congruence step is one row
operation on R, and a pivot that divides its two rows clears both in one
rank-2 pass.  It verifies H = R^T N R, N = diag(m1 S, ..., ml S, 0), on
its strict lower triangle in O(l n^2): H is checked to be skew on entry,
so both sides are skew and that triangle decides the identity exactly.  Q
is built, and checked by R Q = I, only when read.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add, sub


class NotSkewSymmetric(ValueError):
    pass


class CrossCheckFailed(RuntimeError):
    """Internal consistency failure between two independent computations."""


# ---------------------------------------------------------------------------
# basic matrix helpers


def shape(M):
    return (len(M), len(M[0]) if M else 0)


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def identity(n):
    out = zeros(n, n)
    for i, row in enumerate(out):
        row[i] = 1
    return out


def copy_matrix(M):
    return [row[:] for row in M]


def transpose(M):
    r, c = shape(M)
    return [[M[i][j] for i in range(r)] for j in range(c)]


def _combine(coeffs, rows, width):
    """sum_k coeffs[k] * rows[k][:width], skipping zero coefficients (most
    of the nonzero ones are units)."""
    acc = [0] * width
    for a, row in zip(coeffs, rows):
        if a == 1:
            acc = list(map(add, acc, row))
        elif a == -1:
            acc = list(map(sub, acc, row))
        elif a:
            acc = [x + a * y for x, y in zip(acc, row)]
    return acc


def mat_mul(A, B):
    ra, ca = shape(A)
    rb, cb = shape(B)
    if ca != rb:
        raise ValueError(f"shape mismatch: {ra}x{ca} times {rb}x{cb}")
    return [_combine(row, B, cb) for row in A]


def mat_neg(A):
    return [[-x for x in row] for row in A]


def mat_eq(A, B):
    return shape(A) == shape(B) and all(ra == rb for ra, rb in zip(A, B))


def block_diag(*blocks):
    rows = sum(shape(b)[0] for b in blocks)
    cols = sum(shape(b)[1] for b in blocks)
    out = zeros(rows, cols)
    r0 = c0 = 0
    for b in blocks:
        br, bc = shape(b)
        for i in range(br):
            out[r0 + i][c0 : c0 + bc] = list(b[i])
        r0 += br
        c0 += bc
    return out


def is_skew_symmetric(H):
    r, c = shape(H)
    if r != c:
        return False
    return all(H[i][j] == -H[j][i] for i in range(r) for j in range(i, r))


# ---------------------------------------------------------------------------
# rank and kernels


def rank_over_Q(M):
    """Rank over Q of an integer matrix, by fraction-free Bareiss elimination.

    After k pivots every remaining entry is a (k+1)-minor of M, and Sylvester's
    identity makes the division by the previous pivot exact.  The rows below
    the pivots keep only the columns still to come: a row update rewrites the
    columns right of the pivot, since no later step reads the pivot column.
    """
    r, c = shape(M)
    A = [list(row) for row in M]
    rank = 0
    prev = 1
    for _ in range(c):
        piv = next((i for i in range(rank, r) if A[i][0]), None)
        if piv is None:
            for row in A[rank:]:
                del row[0]
            continue
        A[rank], A[piv] = A[piv], A[rank]
        pv, top = A[rank][0], A[rank][1:]
        for i in range(rank + 1, r):
            row = A[i]
            f = row[0]
            A[i] = [(pv * a - f * b) // prev for a, b in zip(row[1:], top)]
        prev = pv
        rank += 1
        if rank == r:
            break
    return rank


def invert_unitriangular(L):
    """Inverse of a lower triangular integer matrix with diagonal entries +-1,
    by forward substitution in integers."""
    inv = []
    for s, Ls in enumerate(L):
        if Ls[s] not in (1, -1) or any(Ls[s + 1:]):
            raise ValueError("matrix is not lower triangular with diagonal entries +-1")
        row = [0] * len(L)
        row[s] = 1
        for t in range(s):
            if Ls[t]:
                row = [a - Ls[t] * b for a, b in zip(row, inv[t])]
        inv.append([Ls[s] * x for x in row])  # 1/d = d for d = +-1
    return inv


# ---------------------------------------------------------------------------
# Smith normal form


def _least_nonzero(A, rows, first_col):
    """(i, j) of the first entry, scanning A[i][first_col(i):] for i in rows,
    of least nonzero absolute value; None if all are 0.  A unit ends the
    scan, since no later entry can be strictly smaller."""
    best, least = None, 0
    for i in rows:
        row = A[i]
        for j in range(first_col(i), len(row)):
            v = row[j]
            if v and (best is None or abs(v) < least):
                best, least = (i, j), abs(v)
                if least == 1:
                    return best
    return best


def _smith(M, track_u, track_v):
    """(U, D, Vt) with U M Vt^T = D by the elimination of smith_normal_form;
    U is None unless track_u, Vt (V^T, whose rows are the columns of V)
    None unless track_v."""
    r, c = shape(M)
    D = copy_matrix(M)
    U = identity(r) if track_u else None
    Vt = identity(c) if track_v else None

    def row_op(i, j, f):  # row_i -= f*row_j
        D[i] = [a - f * b for a, b in zip(D[i], D[j])]
        if U is not None:
            U[i] = [a - f * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, f):  # col_i -= f*col_j
        for row in D:
            row[i] -= f * row[j]
        if Vt is not None:
            Vt[i] = [a - f * b for a, b in zip(Vt[i], Vt[j])]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        if Vt is not None:
            Vt[i], Vt[j] = Vt[j], Vt[i]

    t = 0
    while t < min(r, c):
        best = _least_nonzero(D, range(t, r), lambda i: t)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            # clear column t, then row t; a nonzero remainder becomes the
            # smaller pivot and the sweep restarts, as in skew_normal_form
            for i in range(t + 1, r):
                if D[i][t]:
                    row_op(i, t, D[i][t] // D[t][t])
                    if D[i][t]:
                        swap_rows(t, i)
                        break
            else:
                for j in range(t + 1, c):
                    if D[t][j]:
                        col_op(j, t, D[t][j] // D[t][t])
                        if D[t][j]:
                            swap_cols(t, j)
                            break
                else:
                    # divisibility fixup: every remaining entry must divide by pivot
                    off = next(((i, j) for i in range(t + 1, r) for j in range(t + 1, c)
                                if D[i][j] % D[t][t]), None)
                    if off is None:
                        break
                    row_op(t, off[0], -1)  # mix the offending row into the pivot row
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            if U is not None:
                U[t] = [-x for x in U[t]]
        t += 1
    return U, D, Vt


def smith_normal_form(M):
    """(U, D, V) with U M V = D, U, V unimodular, D diagonal, d1 | d2 | ...

    Diagonal entries are nonnegative and satisfy the divisibility chain; the
    identity U*M*V == D is checked exactly (CrossCheckFailed otherwise).
    """
    U, D, Vt = _smith(M, True, True)
    V = transpose(Vt)
    if not mat_eq(mat_mul(mat_mul(U, M), V), D):
        raise CrossCheckFailed("Smith normal form verification failed")
    return U, D, V


def invariant_factors(M):
    """Nonzero diagonal of the Smith form, in divisibility order."""
    _, D, _ = _smith(M, False, False)
    return [D[i][i] for i in range(min(shape(D))) if D[i][i] != 0]


def kernel_basis(M):
    """Z-basis of the saturated integer kernel lattice {v : M v = 0}.

    Returned vectors are columns of a unimodular matrix, hence primitive and
    spanning a saturated sublattice.
    """
    r, c = shape(M)
    if c == 0:
        return []
    _, D, Vt = _smith(M, False, True)
    rank = sum(1 for i in range(min(r, c)) if D[i][i] != 0)
    return Vt[rank:]


# ---------------------------------------------------------------------------
# skew-symmetric congruence normal form


class SkewNormalForm(namedtuple("SkewNormalForm", "R multipliers zero_dim")):
    """R unimodular with H = R^T diag(m1 S, ..., ml S, 0, ...) R, the
    multipliers m1 | ... | ml, and zero_dim the size of the zero block."""

    __slots__ = ()

    @property
    def Q(self):
        """Q = R^-1, so Q^T H Q = diag(m1 S, ..., ml S, 0, ...); from the
        Smith form U R V = I as V U, checked by R Q = I."""
        U, _, V = smith_normal_form(self.R)
        Q = mat_mul(V, U)
        if not mat_eq(mat_mul(self.R, Q), identity(len(Q))):
            raise CrossCheckFailed("skew normal form inverse check failed")
        return Q


def skew_normal_form(H):
    """Congruence normal form of a skew-symmetric integer matrix.

    Finds unimodular Q with Q^T H Q = diag(m1*S, ..., ml*S, 0, ..., 0),
    S = [[0,1],[-1,0]], and m1 | m2 | ... | ml positive; it carries
    R = Q^-1 and builds Q only when read.
    """
    n, c = shape(H)
    if n != c:
        raise NotSkewSymmetric(f"matrix is {n}x{c}, not square")
    if not is_skew_symmetric(H):
        raise NotSkewSymmetric("matrix is not skew-symmetric")
    A = copy_matrix(H)
    R = identity(n)

    def col_add(i, j, f):  # col_i += f*col_j, with the congruent row op
        for row in A:
            row[i] += f * row[j]
        A[i] = [a + f * b for a, b in zip(A[i], A[j])]
        R[j] = [a - f * b for a, b in zip(R[j], R[i])]

    def swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        A[i], A[j] = A[j], A[i]
        R[i], R[j] = R[j], R[i]

    mult = []
    s = 0
    while s + 1 < n:
        # minimal nonzero entry in the trailing block
        best = _least_nonzero(A, range(s, n), lambda i: i + 1)
        if best is None:
            break
        i0, j0 = best
        if i0 != s:
            swap(s, i0)
        if j0 != s + 1:
            swap(s + 1, j0)
        while True:
            p, u, v = A[s][s + 1], A[s][s + 2:], A[s + 1][s + 2:]
            if abs(p) != 1 and any(x % p for x in u + v):
                # clear row s, then row s+1 (A[s+1][s] = -p), column by
                # column up to the first remainder, which becomes the smaller
                # pivot of a new pass; clearing column t changes no other
                # entry of the two rows
                for r, k, sign in ((s, s + 1, -1), (s + 1, s, 1)):
                    j = next((j for j in range(s + 2, n) if A[r][j] % p), n)
                    for t in range(s + 2, min(j + 1, n)):
                        if A[r][t]:
                            col_add(t, k, sign * (A[r][t] // p))
                    if j < n:
                        swap(k, j)
                        break
                continue
            # p divides rows s and s+1, and the column sweeps would clear
            # them without a swap, by operations that leave rows and columns
            # s and s+1 to each other: one rank-2 pass applies them all
            f, g = [x // p for x in u], [x // p for x in v]
            head = [0] * (s + 2)  # the pass clears columns s and s+1
            for t, ft, gt in zip(range(s + 2, n), f, g):
                if ft or gt:
                    A[t] = head + [a + gt * x - ft * y for a, x, y in zip(A[t][s + 2:], u, v)]
            below = R[s + 2:]
            R[s] = list(map(sub, R[s], _combine(g, below, n)))
            R[s + 1] = list(map(add, R[s + 1], _combine(f, below, n)))
            A[s], A[s + 1] = [0] * n, [0] * n
            A[s][s + 1], A[s + 1][s] = p, -p
            if abs(p) == 1:
                break
            # divisibility: remaining entries must be multiples of the pivot
            off = next(((i, j) for i in range(s + 2, n) for j in range(i + 1, n) if A[i][j] % p), None)
            if off is None:
                break
            col_add(s, off[0], 1)  # pivot row regains a non-multiple
        p = A[s][s + 1]
        if p < 0:  # swapping s and s+1 negates the pivot block
            R[s], R[s + 1] = R[s + 1], R[s]
        mult.append(abs(p))
        s += 2

    nf = SkewNormalForm(R=R, multipliers=mult, zero_dim=n - s)
    _verify_skew_form(H, nf)
    for a, b in zip(mult, mult[1:]):
        if b % a != 0:
            raise CrossCheckFailed("skew multipliers do not form a divisibility chain")
    return nf


def _verify_skew_form(H, nf):
    """Exact check of H = R^T N R, N = diag(m1 S, ..., ml S, 0), for a skew H.

    R^T N R = sum_k m_k (r_{2k}^T r_{2k+1} - r_{2k+1}^T r_{2k}), r_a row a
    of R, is skew, so its strict lower triangle decides it: row j of it cut
    at column j is one combination of the rows r_a, in O(l n^2) in all.
    """
    R = nf.R
    scaled, rows = [], []  # row j of R^T N R = sum_a scaled[a][j] rows[a]
    for k, m in enumerate(nf.multipliers):
        a, b = R[2 * k], R[2 * k + 1]
        scaled += [[m * x for x in a], [-m * x for x in b]]
        rows += [b, a]
    for j, (Hj, coeffs) in enumerate(zip(H, zip(*scaled) if scaled else [()] * len(H))):
        if _combine(coeffs, rows, j) != Hj[:j]:
            raise CrossCheckFailed("skew normal form verification failed")


# ---------------------------------------------------------------------------
# plain-text / JSON matrix I/O (one row per line, whitespace separated)


def parse_matrix_text(text):
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([int(tok) for tok in line.split()])
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows in matrix input")
    return rows
