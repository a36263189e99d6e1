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
entry can beat.  The skew normal form verifies Q^T H Q on its strict upper
triangle: H is checked to be skew on entry, so Q^T H Q is skew too and that
triangle decides the identity exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def smith_normal_form(M):
    """(U, D, V) with U M V = D, U, V unimodular, D diagonal, d1 | d2 | ...

    Diagonal entries are nonnegative and satisfy the divisibility chain; the
    identity U*M*V == D holds exactly.
    """
    r, c = shape(M)
    D = copy_matrix(M)
    U = identity(r)
    V = identity(c)

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
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

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
            U[t] = [-x for x in U[t]]
        t += 1
    return U, D, V


def invariant_factors(M):
    """Nonzero diagonal of the Smith form, in divisibility order."""
    _, D, _ = smith_normal_form(M)
    return [D[i][i] for i in range(min(shape(D))) if D[i][i] != 0]


def kernel_basis(M):
    """Z-basis of the saturated integer kernel lattice {v : M v = 0}.

    Returned vectors are columns of a unimodular matrix, hence primitive and
    spanning a saturated sublattice.
    """
    r, c = shape(M)
    if c == 0:
        return []
    _, D, V = smith_normal_form(M)
    rank = sum(1 for i in range(min(r, c)) if D[i][i] != 0)
    cols = transpose(V)
    return [list(cols[j]) for j in range(rank, c)]


# ---------------------------------------------------------------------------
# skew-symmetric congruence normal form


@dataclass
class SkewNormalForm:
    Q: list  # unimodular, Q^T H Q = diag(m1 S, ..., ml S, 0, ...)
    multipliers: list
    zero_dim: int


def skew_normal_form(H):
    """Congruence normal form of a skew-symmetric integer matrix.

    Finds unimodular Q with Q^T H Q = diag(m1*S, ..., ml*S, 0, ..., 0),
    S = [[0,1],[-1,0]], and m1 | m2 | ... | ml positive.
    """
    n, c = shape(H)
    if n != c:
        raise NotSkewSymmetric(f"matrix is {n}x{c}, not square")
    if not is_skew_symmetric(H):
        raise NotSkewSymmetric("matrix is not skew-symmetric")
    A = copy_matrix(H)
    Q = identity(n)

    def col_add(i, j, f):  # col_i += f*col_j, with the congruent row op
        for row in A:
            row[i] += f * row[j]
        A[i] = [a + f * b for a, b in zip(A[i], A[j])]
        for row in Q:
            row[i] += f * row[j]

    def swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        A[i], A[j] = A[j], A[i]
        for row in Q:
            row[i], row[j] = row[j], row[i]

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
            dirty = False
            p = A[s][s + 1]
            # clear row s beyond s+1 (and by skew symmetry column s)
            for j in range(s + 2, n):
                if A[s][j] != 0:
                    f = A[s][j] // p
                    col_add(j, s + 1, -f)
                    if A[s][j] != 0:
                        swap(s + 1, j)
                        dirty = True
                        break
            if dirty:
                continue
            # clear row s+1 beyond s+1 (uses A[s+1][s] = -p)
            for j in range(s + 2, n):
                if A[s + 1][j] != 0:
                    f = A[s + 1][j] // p
                    col_add(j, s, f)
                    if A[s + 1][j] != 0:
                        swap(s, j)
                        dirty = True
                        break
            if dirty:
                continue
            # divisibility: remaining entries must be multiples of the pivot
            off = next(
                ((i, j) for i in range(s + 2, n) for j in range(i + 1, n)
                 if A[i][j] % p != 0),
                None,
            )
            if off is None:
                break
            col_add(s, off[0], 1)  # pivot row regains a non-multiple
        if A[s][s + 1] < 0:
            swap(s, s + 1)
        s += 2

    mult = [A[i][i + 1] for i in range(0, s, 2)]
    nf = SkewNormalForm(Q=Q, multipliers=mult, zero_dim=n - s)
    _verify_skew_form(H, nf)
    for a, b in zip(mult, mult[1:]):
        if b % a != 0:
            raise CrossCheckFailed("skew multipliers do not form a divisibility chain")
    return nf


def _verify_skew_form(H, nf):
    """Exact check of Q^T H Q = diag(m1 S, ..., ml S, 0) for a skew H.

    Q^T H Q is skew, so its strict upper triangle decides it.  Column j of
    that triangle (rows i < j) is row j of (HQ)^T Q cut at column j.
    """
    target = block_diag(*[[[0, m], [-m, 0]] for m in nf.multipliers],
                        zeros(nf.zero_dim, nf.zero_dim))
    HQ = mat_mul(H, nf.Q)
    upper = [_combine(col, nf.Q, j) for j, col in enumerate(zip(*HQ))]
    if not mat_eq(upper, [[target[i][j] for i in range(j)] for j in range(len(H))]):
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
