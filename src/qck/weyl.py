"""Root data, integral weights, and double-word bookkeeping.

Weights are plain integer tuples over the fundamental-weight basis, so the
pairing (mu, alpha_i^vee) is just the i-th coordinate.  Words are tuples of
indices in [1, n]; signed double words use negative entries for the first
Weyl factor and positive entries for the second.

Reducedness has one route for every Cartan type: mu = w^{-1}(rho) is carried
along the prefixes w, and the letter i extends w iff mu_i > 0 (is_reduced).
"""

from __future__ import annotations

import functools
from collections import namedtuple


class NonReducedWord(ValueError):
    """A word that should be reduced is not; carries the offending factor."""


class RootDatum(namedtuple("RootDatum", "n cartan d")):
    """Symmetrizable Cartan datum: matrix c_ij = (alpha_i^vee, alpha_j) and
    symmetrizers d_i = (alpha_i, alpha_i)/2."""

    def __new__(cls, n, cartan, d):
        # stored as tuples, so that equal data compare and hash equal (is_type_a, memos)
        self = super().__new__(cls, n, tuple(map(tuple, cartan)), tuple(d))
        cartan, d = self.cartan, self.d
        if n <= 0 or len(cartan) != n or any(len(r) != n for r in cartan):
            raise ValueError("bad Cartan matrix shape")
        if len(d) != n:
            raise ValueError(f"{len(d)} symmetrizers for rank {n}")
        for i in range(n):
            if cartan[i][i] != 2:
                raise ValueError("Cartan diagonal must be 2")
            if d[i] <= 0:
                raise ValueError("symmetrizers must be positive")
            for j in range(n):
                if i != j and cartan[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if d[i] * cartan[i][j] != d[j] * cartan[j][i]:
                    raise ValueError("Cartan matrix is not symmetrizable")
        return self

    @functools.cached_property
    def is_type_a(self):
        return self == type_a(self.n)

    @functools.cached_property
    def simple_roots(self):
        """(alpha_1, ..., alpha_n) in the omega-basis: the Cartan columns."""
        return tuple(zip(*self.cartan))

    def sym(self, i, j):
        """(alpha_i, alpha_j) = d_i c_ij."""
        return self.d[i - 1] * self.cartan[i - 1][j - 1]

    def _check_index(self, i):
        if not 1 <= i <= self.n:
            raise IndexError(f"letter {i} out of range for rank {self.n}")


def type_a(n):
    cartan = tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
        for i in range(n)
    )
    return RootDatum(n=n, cartan=cartan, d=(1,) * n)


def reflect(datum, i, mu):
    """Simple reflection s_i(mu) = mu - (mu, alpha_i^vee) alpha_i."""
    datum._check_index(i)
    c = mu[i - 1]
    if c == 0:
        return tuple(mu)
    return tuple(m - c * a for m, a in zip(mu, datum.simple_roots[i - 1]))


def beta_roots(datum, word):
    """beta_k = s_{j_1}...s_{j_{k-1}}(alpha_{j_k}) in alpha-basis coordinates."""
    betas = []
    for k in range(len(word)):
        coords = [1 if t == word[k] - 1 else 0 for t in range(datum.n)]
        for idx in range(k - 1, -1, -1):
            i = word[idx]
            pair = sum(datum.cartan[i - 1][t] * coords[t] for t in range(datum.n))
            coords[i - 1] -= pair
        betas.append(tuple(coords))
    return betas


def is_reduced(datum, word):
    """True iff the word is a reduced expression for its Weyl product.

    Every letter is range-checked first.  Then mu = w^{-1}(rho) is carried
    along the prefixes w: the next letter i is an ascent iff mu_i > 0, since
    (w(alpha_i), rho) = d_i mu_i and a root beta = sum c_j alpha_j is positive
    iff (beta, rho) = sum c_j d_j > 0, every d_j being positive.
    """
    word = tuple(word)
    for i in word:
        datum._check_index(i)
    mu = (1,) * datum.n
    for i in word:
        if mu[i - 1] <= 0:
            return False
        mu = reflect(datum, i, mu)
    return True


def inversion_count(perm):
    return sum(
        1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b]
    )


def check_letters(datum, word):
    """Raise IndexError on a signed letter outside -n..-1, 1..n."""
    for e in word:
        if e == 0 or abs(e) > datum.n:
            raise IndexError(f"letter {e} out of range for rank {datum.n}")


def split_double_word(datum, word):
    """Split a signed double word into (w1_word, w2_word, supp).

    Negative entries, in order, give a reduced word for w1; positive entries
    give one for w2.  Raises NonReducedWord naming the offending factor.
    """
    word = tuple(word)
    check_letters(datum, word)
    w1 = tuple(-e for e in word if e < 0)
    w2 = tuple(e for e in word if e > 0)
    if not is_reduced(datum, w1):
        raise NonReducedWord(f"negative letters {w1} are not reduced (w1 factor)")
    if not is_reduced(datum, w2):
        raise NonReducedWord(f"positive letters {w2} are not reduced (w2 factor)")
    return w1, w2, frozenset(abs(e) for e in word)


def parse_word(text):
    """Parse a comma-separated signed word such as '1,2,1,-1,-2'."""
    word = []
    for letter in text.split(",") if text.strip() else ():
        try:
            word.append(int(letter))
        except ValueError:
            raise ValueError(f"word {text!r} has the letter {letter!r}, not an integer") from None
    return tuple(word)


def format_word(word):
    return ",".join(str(e) for e in word)


def _ascents(datum, mu):
    """(i, s_i(mu)) for each letter i, in order, that extends a reduced word w
    with w^{-1}(rho) = mu to a reduced word; s_i(mu) is the extension's mu."""
    return [(i, reflect(datum, i, mu)) for i in range(1, datum.n + 1) if mu[i - 1] > 0]


def all_reduced_words(datum, max_len):
    """All reduced words of length <= max_len, grouped by length (exhaustive)."""
    out = [[()]]
    frontier = [((), (1,) * datum.n)]  # (reduced word, its mu)
    for _ in range(max_len):
        frontier = [(w + (i,), nu) for w, mu in frontier for i, nu in _ascents(datum, mu)]
        out.append([w for w, _mu in frontier])
    return out


def all_double_words(datum, max_len):
    """All valid signed double words of length <= max_len (exhaustive), each
    length in letter order -n..-1, 1..n."""
    words = [()]
    frontier = [((), (1,) * datum.n, (1,) * datum.n)]  # (double word, mu of its w1, mu of its w2)
    for _ in range(max_len):
        nxt = []
        for w, neg, pos in frontier:
            nxt += [(w + (-i,), nu, pos) for i, nu in reversed(_ascents(datum, neg))]
            nxt += [(w + (i,), neg, nu) for i, nu in _ascents(datum, pos)]
        words.extend(w for w, _neg, _pos in nxt)
        frontier = nxt
    return words
