import math
import random
import signal
import sys
from operator import mul
from pathlib import Path

import pytest

from conftest import column_sweep_skew_normal_form, dense_mat_mul, full_scan_pivot, full_skew_verification
from conftest import exact_det as _det
from conftest import fraction_rank, hermite_column_basis, invert_rational, smith_sweep_matrix
from conftest import solve_rational, sweeping_smith_normal_form
from qck import intlinalg as la
from qck import strings


def _random_matrix(rng, r, c, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def _random_unimodular(rng, n, steps=12):
    M = la.identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = rng.randint(-2, 2)
        for row in range(n):
            M[row][i] += f * M[row][j]
    return M


def test_smith_examples():
    _, D, _ = la.smith_normal_form([[2, 0], [0, 3]])
    assert [D[0][0], D[1][1]] == [1, 6]
    _, D, _ = la.smith_normal_form([[0, 0], [0, 0]])
    assert [D[0][0], D[1][1]] == [0, 0]
    _, D, _ = la.smith_normal_form(la.identity(4))
    assert [D[i][i] for i in range(4)] == [1, 1, 1, 1]


def test_smith_identity_and_unimodularity():
    rng = random.Random(5)
    for _ in range(60):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        M = _random_matrix(rng, r, c)
        U, D, V = la.smith_normal_form(M)
        assert la.mat_eq(la.mat_mul(U, la.mat_mul(M, V)), D)
        assert abs(_det(U)) == 1
        assert abs(_det(V)) == 1
        diag = [D[i][i] for i in range(min(r, c))]
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert D[i][j] == 0


def test_smith_matches_the_sweeping_oracle():
    """Restarting the sweep after a pivot swap changes U and V on some
    inputs, never D."""
    rng = random.Random(63)
    mats = [_hostile_matrix(rng, rng.randint(1, 4), rng.randint(1, 4)) for _ in range(150)]
    mats += [_random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(150)]
    changed = 0
    for M in mats:
        U, D, V = la.smith_normal_form(M)
        U0, D0, V0 = sweeping_smith_normal_form(M)
        assert D == D0, M
        assert la.mat_mul(U, la.mat_mul(M, V)) == D == la.mat_mul(U0, la.mat_mul(M, V0)), M
        changed += (U, V) != (U0, V0)
    assert changed


def test_smith_transforms_stay_small_on_the_seeded_sweep():
    """Ten seeds of each shape on which the sweeping elimination blew up
    (6 x 7 with entries 10^6, 8 x 8 with 15, 10 x 10 with 8): all thirty
    finish within a 5 s budget, with U and V under 1,000 bits, and a square
    D has the absolute determinant as its product."""
    def overrun(*_):
        raise TimeoutError("the seeded Smith sweep ran past its 5 s budget")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        for r, c, b in ((6, 7, 10**6), (8, 8, 15), (10, 10, 8)):
            for seed in range(10):
                M = smith_sweep_matrix(r, c, b, seed)
                U, D, V = la.smith_normal_form(M)
                assert la.mat_mul(U, la.mat_mul(M, V)) == D, (r, c, seed)
                assert max(abs(x).bit_length() for row in U + V for x in row) < 1000, (r, c, seed)
                if r == c:
                    assert math.prod(D[i][i] for i in range(r)) == abs(_det(M)), (r, seed)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_rank_and_kernel_examples():
    assert la.rank_over_Q(la.identity(3)) == 3
    assert la.kernel_basis(la.identity(3)) == []
    assert la.rank_over_Q([[1, 1], [1, 1]]) == 1
    kb = la.kernel_basis([[1, 1], [1, 1]])
    assert len(kb) == 1
    assert sorted(abs(x) for x in kb[0]) == [1, 1] and sum(kb[0]) == 0


def test_bareiss_rank_matches_fraction_rank():
    rng = random.Random(41)
    cases = [[], [[]], [[], []], la.zeros(1, 4), la.zeros(5, 3), la.identity(6),
             [[2, 4], [3, 6]], [[0, 0, 1], [0, 0, 2], [1, 0, 0]]]
    for _ in range(150):
        r, c = rng.randint(1, 4), rng.randint(5, 9)  # wide
        cases.append(_random_matrix(rng, r, c, -3, 3))
        cases.append(_random_matrix(rng, c, r, -3, 3))  # tall
        big = 10 ** rng.randint(10, 40)
        cases.append(_random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), -big, big))
        # low rank: a product through a thin inner dimension, with zero rows mixed in
        k = rng.randint(1, 3)
        low = la.mat_mul(_random_matrix(rng, 6, k), _random_matrix(rng, k, 7))
        low[rng.randrange(6)] = [0] * 7
        cases.append(low)
    for M in cases:
        assert la.rank_over_Q(M) == fraction_rank(M), M


def _entry_picker(rng):
    """One of four entry laws: mostly zero with units, all zero, with 10^30
    entries, or small and dense."""
    return rng.choice((
        lambda: rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))),
        lambda: 0,
        lambda: rng.choice((0, 1, -1, 10**30 + rng.randint(-5, 5), -(10**30))),
        lambda: rng.randint(-4, 4),
    ))


def _hostile_matrix(rng, r, c):
    pick = _entry_picker(rng)
    return [[pick() for _ in range(c)] for _ in range(r)]


def _hostile_skew(rng, n):
    pick = _entry_picker(rng)
    H = la.zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            H[i][j] = pick()
            H[j][i] = -H[i][j]
    return H


def test_mat_mul_matches_triple_loop():
    rng = random.Random(42)
    # a row list cannot hold a 0 x c matrix with c > 0, so a zero inner
    # dimension comes with an empty B
    shapes = [(0, 0, 0), (2, 0, 0), (3, 2, 0), (1, 1, 1)]
    shapes += [(rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)) for _ in range(150)]
    for ra, ca, cb in shapes:
        A = _hostile_matrix(rng, ra, ca) if ca else [[] for _ in range(ra)]
        B = _hostile_matrix(rng, ca, cb)
        naive = [[0] * cb for _ in range(ra)]
        for i in range(ra):
            for j in range(cb):
                for k in range(ca):
                    naive[i][j] += A[i][k] * B[k][j]
        assert la.mat_mul(A, B) == naive == dense_mat_mul(A, B)
    with pytest.raises(ValueError):
        la.mat_mul([[1, 2]], [[1, 2]])


def _full_scan_cases():
    """(skews, mats): 83 hostile skew matrices and 123 hostile matrices."""
    rng = random.Random(61)
    skews = [_hostile_skew(rng, n) for n in [0, 1, 2] + [rng.randint(2, 10) for _ in range(80)]]
    mats = [_hostile_matrix(rng, r, c) for r, c in [(0, 0), (3, 0), (1, 1)]]
    mats += [_hostile_matrix(rng, rng.randint(1, 8), rng.randint(1, 8)) for _ in range(120)]
    return skews, mats


def test_normal_forms_match_full_scan_pivots(monkeypatch):
    """Stopping the pivot search at the first unit picks the same pivots, so
    R, U, D and V are those of the full scan."""
    skews, mats = _full_scan_cases()
    fast_skew = [la.skew_normal_form(H) for H in skews]
    fast_smith = [la.smith_normal_form(M) for M in mats]
    for H, nf in zip(skews, fast_skew):
        assert full_skew_verification(H, nf)
    monkeypatch.setattr(la, "_least_nonzero", full_scan_pivot)
    for H, nf in zip(skews, fast_skew):
        assert la.skew_normal_form(H) == nf, H
    for M, udv in zip(mats, fast_smith):
        assert la.smith_normal_form(M) == udv, M


def test_skew_normal_form_matches_the_column_sweep_oracle():
    """Carrying R = Q^-1 and clearing a dividing pivot in one rank-2 pass
    give the column sweep's Q, multipliers and radical, on the hostile skew
    matrices and on 600 whose entries have no unit, so that every first
    pivot is not a unit; the multipliers are every other Smith invariant
    factor."""
    skews, _ = _full_scan_cases()
    rng = random.Random(64)
    for _ in range(600):
        n = rng.randint(2, 12)
        H = la.zeros(n, n)
        for i in range(n):
            for j in range(i + 1, n):
                H[i][j] = rng.choice((0, 0, 2, -2, 3, -3, 4, 6, -6, 9, 10))
                H[j][i] = -H[i][j]
        skews.append(H)
    nonunit = 0
    for H in skews:
        Q, mult, zero_dim, passes = column_sweep_skew_normal_form(H)
        nf = la.skew_normal_form(H)
        assert (nf.Q, nf.multipliers, nf.zero_dim) == (Q, mult, zero_dim), H
        assert la.invariant_factors(H)[::2] == mult, H
        nonunit += passes > 0
    assert nonunit > 500


def test_skew_multipliers_are_every_other_invariant_factor_on_the_cell_sweep(monkeypatch):
    """The 646 skew normal forms of a seed-1 cell_sweep benchmark round: the
    torus H, script-H and K^T S K of each of its 216 double words."""
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        del sys.path[0]
    forms, real = [], la.skew_normal_form
    monkeypatch.setattr(la, "skew_normal_form", lambda H: forms.append((H, real(H))) or forms[-1][1])
    strings._context.cache_clear()
    sweep = workloads.CellSweep(1)
    for op in sweep.ops:
        sweep.run(op)
    assert len(forms) == 646
    for H, nf in forms:
        assert la.invariant_factors(H)[::2] == nf.multipliers, H


def test_trimmed_smith_matches_the_full_smith_form():
    """invariant_factors tracks neither transform and kernel_basis only V;
    both read what the full Smith form gives."""
    _, mats = _full_scan_cases()
    for M in mats[3:]:
        _, D, V = la.smith_normal_form(M)
        diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
        assert la.invariant_factors(M) == [d for d in diag if d], M
        rank = sum(1 for d in diag if d)
        assert la.kernel_basis(M) == [list(col) for col in zip(*V)][rank:], M


def test_half_check_rejects_what_the_full_check_rejects(monkeypatch):
    rng = random.Random(62)
    rejected = 0
    for _ in range(120):
        n = rng.randint(2, 9)
        H = _hostile_skew(rng, n)
        nf = la.skew_normal_form(H)
        R = [row[:] for row in nf.R]
        R[rng.randrange(n)][rng.randrange(n)] += rng.choice((1, -1, 2, 10**30))
        bad = la.SkewNormalForm(R=R, multipliers=nf.multipliers, zero_dim=nf.zero_dim)
        if full_skew_verification(H, bad):
            la._verify_skew_form(H, bad)
        else:
            rejected += 1
            with pytest.raises(la.CrossCheckFailed):
                la._verify_skew_form(H, bad)
    assert rejected > 60
    # a wrong starting R inside skew_normal_form: diag(-1, 1) turns the
    # pivot 3 into -3 and the result no longer matches its normal form
    monkeypatch.setattr(la, "identity", lambda n: [[-1, 0], [0, 1]])
    with pytest.raises(la.CrossCheckFailed):
        la.skew_normal_form([[0, 3], [-3, 0]])


def test_invert_unitriangular_matches_invert_rational():
    rng = random.Random(43)
    assert la.invert_unitriangular([]) == []
    for _ in range(60):
        n = rng.randint(1, 8)
        L = [[rng.randint(-4, 4) if t < s else rng.choice((1, -1)) if t == s else 0
              for t in range(n)] for s in range(n)]
        assert la.invert_unitriangular(L) == invert_rational(L)
    for bad in ([[2]], [[1, 1], [0, 1]]):
        with pytest.raises(ValueError):
            la.invert_unitriangular(bad)


def test_kernel_saturated_and_exact():
    rng = random.Random(9)
    for _ in range(50):
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        M = _random_matrix(rng, r, c, -4, 4)
        kb = la.kernel_basis(M)
        assert len(kb) == c - la.rank_over_Q(M)
        for v in kb:
            assert all(sum(map(mul, row, v)) == 0 for row in M)
        if kb:
            stacked = [[v[i] for v in kb] for i in range(c)]
            assert la.invariant_factors(stacked) == [1] * len(kb)


def test_skew_examples():
    nf = la.skew_normal_form([[0, 1], [-1, 0]])
    assert nf.multipliers == [1] and nf.zero_dim == 0
    assert nf.Q == la.identity(2)
    nf = la.skew_normal_form([[0, 2], [-2, 0]])
    assert nf.multipliers == [2] and nf.zero_dim == 0
    nf = la.skew_normal_form(la.zeros(3, 3))
    assert nf.multipliers == [] and nf.zero_dim == 3


def test_skew_rejects_non_skew():
    with pytest.raises(la.NotSkewSymmetric):
        la.skew_normal_form([[0, 1], [1, 0]])


def _random_skew(rng, n, lo=-5, hi=5):
    H = la.zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(lo, hi)
            H[i][j] = v
            H[j][i] = -v
    return H


def test_skew_randomized_invariance():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 12)
        H = _random_skew(rng, n)
        nf = la.skew_normal_form(H)  # internal exactness assertion runs here
        assert abs(_det(nf.Q)) == 1
        assert 2 * len(nf.multipliers) + nf.zero_dim == n
        assert la.rank_over_Q(H) == 2 * len(nf.multipliers)
        assert la.rank_over_Q(H) % 2 == 0
        for a, b in zip(nf.multipliers, nf.multipliers[1:]):
            assert b % a == 0
        P = _random_unimodular(rng, n)
        H2 = la.mat_mul(la.transpose(P), la.mat_mul(H, P))
        assert la.skew_normal_form(H2).multipliers == nf.multipliers


def test_hermite_column_basis_spans_lattice():
    rng = random.Random(33)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(0, 6)
        M = _random_matrix(rng, r, c, -4, 4)
        basis = hermite_column_basis(M)
        assert len(basis) == la.rank_over_Q(M) if c else not basis
        if not basis:
            assert all(all(x == 0 for x in col) for col in zip(*M)) or c == 0
            continue
        Bmat = [[col[i] for col in basis] for i in range(r)]
        # every original column is an integral combination of the basis
        for j in range(c):
            col = [M[i][j] for i in range(r)]
            sol = solve_rational(Bmat, col)
            assert sol is not None and all(x.denominator == 1 for x in sol)
        # and every basis vector is in the lattice generated by the columns:
        # appending it to M must not change the Hermite basis
        for v in basis:
            M2 = [M[i] + [v[i]] for i in range(r)]
            assert hermite_column_basis(M2) == basis


def test_matrix_text_roundtrip():
    assert la.parse_matrix_text(" 1 -2 3\n\n0 5  -6\n") == [[1, -2, 3], [0, 5, -6]]
    with pytest.raises(ValueError):
        la.parse_matrix_text("1 2\n3")
