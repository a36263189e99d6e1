from fractions import Fraction

import pytest

from qck import weyl


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
