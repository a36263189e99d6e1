"""Type-A wiring diagrams and images in tensor quantum tori.

A signed word gives one column per letter.  The column for letter e carries
a crossing between levels |e| and |e|+1 with a single traversable diagonal:
upward (|e| -> |e|+1) for positive letters, downward (|e|+1 -> |e|) for
negative letters.  Within the crossing column, staying on level |e| weighs
x, staying on level |e|+1 weighs x^{-1}, taking the diagonal weighs y, and
every other level weighs 1; column k writes its weight into tensor factor k.

The image of a quantum minor with rows A and columns B is the sum of weights
of vertex-disjoint path families from A to B (the quantum Lindstrom lemma);
the generator x_ij is the 1x1 minor ({i}|{j}), and so is the factor x_ij of
an expression.  One left-to-right transfer pass over the columns from a
start set A gives the images for every B at once (the planar-network view
of Fomin-Zelevinsky), each column read from a move table keyed by level and
column data only.  The passes are kept for the most recent (datum, word)
only, each run on first use: a single query runs one pass, and a sweep over
one word's minors and relations runs each start set once.  An independent
oracle expands each minor along its first row in the generator images
alone, its smaller expansions memoised beside the passes.  The diagrams are
type A only; every entry point that takes a datum rejects other data.

The defining relations of C_q[SL_{n+1}] are data (quantum_matrix_relations),
which one evaluator (relation_differences) turns into differences for the
torus suite here and the module suites of slq2_tensor alike.  It and the
oracle skip each product with a zero generator image.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import Counter, namedtuple

from . import weyl
from .qtorus import QTorusElement, add_scalars, coeff_qpow, from_flat, mul_into


class SizeMismatch(ValueError):
    pass


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class WiringDiagram(namedtuple("WiringDiagram", "levels word")):  # levels = n + 1
    __slots__ = ()

    def __new__(cls, levels, word):
        for e in word:
            if e == 0 or abs(e) >= levels:
                raise IndexError(f"letter {e} out of range for rank {levels - 1}")
        return super().__new__(cls, levels, word)

    @property
    def columns(self):
        """(crossing level, sign) per column."""
        return tuple((abs(e), 1 if e > 0 else -1) for e in self.word)


def build_diagram(n, word):
    return WiringDiagram(levels=n + 1, word=tuple(word))


def torus_diagonal(datum, word):
    """Diagonal of D_i~ for the word's tensor torus."""
    if not datum.is_type_a:
        raise ValueError("wiring diagrams need a type-A root datum")
    weyl.check_letters(datum, word)
    return tuple(datum.d[abs(e) - 1] for e in word)


def _column_moves(level, crossing, sign):
    """(next_level, (a, b)) options for one column, weight as exponent pair."""
    moves = []
    if level == crossing:
        moves.append((level, (1, 0)))  # stay on the crossing level: weight x
        if sign > 0:
            moves.append((level + 1, (0, 1)))  # upward diagonal: weight y
    elif level == crossing + 1:
        moves.append((level, (-1, 0)))  # stay above: weight x^{-1}
        if sign < 0:
            moves.append((level - 1, (0, 1)))  # downward diagonal: weight y
    else:
        moves.append((level, (0, 0)))
    return moves


@functools.lru_cache(maxsize=None)
def _column_steps(levels, crossing, sign):
    """((next_levels, x, y), ...): each way a family on the sorted levels crosses
    one column with its paths apart, x and y its weight's exponent sums."""
    steps = []
    for moves in itertools.product(*(_column_moves(lv, crossing, sign) for lv in levels)):
        nxt = tuple(lv for lv, _w in moves)
        if len(set(nxt)) == len(nxt):  # else two paths would meet
            steps.append((nxt, sum(w[0] for _lv, w in moves), sum(w[1] for _lv, w in moves)))
    return tuple(steps)


@functools.lru_cache(maxsize=1024)
def _levels(n1, A, B):
    """A and B as sorted tuples of distinct levels, of one size, in 1..n1."""
    A, B = tuple(sorted(set(A))), tuple(sorted(set(B)))
    if len(A) != len(B):
        raise SizeMismatch(f"|A| = {len(A)} != |B| = {len(B)}")
    for lv in A + B:
        if not 1 <= lv <= n1:
            raise IndexError(f"level {lv} out of range 1..{n1}")
    return A, B


@functools.lru_cache(maxsize=1)
def _word_images(datum, word):
    """(D, columns, {A: images}, {(A, B): oracle image}) of the most recent
    (datum, word), the images of each start set A filled in on first use by
    _transfer and the oracle's minors by _row_expansion."""
    return torus_diagonal(datum, word), build_diagram(datum.n, word).columns, {}, {}


def _transfer(datum, word, A):
    """{B: image of minor(A|B)} for every B with |B| = |A|, from one
    left-to-right pass over the columns from the sorted start set A, kept for
    the most recent (datum, word); callers must not mutate the images.

    The state is the sorted tuple of levels a family occupies: paths cannot
    swap, and vertex-disjoint means the levels stay distinct.  A partial
    weight is a full-length exponent pair whose slots for the columns still
    to come are 0, so column k only rewrites slot k.  Within one column two
    paths' weights can only be x and x^{-1}, as a path taking the diagonal
    leaves both crossing levels to itself; so a family weighs the sum of its
    paths' exponent pairs, with coefficient 1.
    """
    D, columns, images, _oracle = _word_images(datum, word)
    if A in images:
        return images[A]
    zero = (0,) * len(word)
    ends = {A: [(zero, zero)]}  # levels -> weights (a, b) of the families ending there
    for k, (crossing, sign) in enumerate(columns):
        step = {}
        for levels, weights in ends.items():
            for nxt, x, y in _column_steps(levels, crossing, sign):
                step.setdefault(nxt, []).extend(
                    [(a[:k] + (x,) + a[k + 1:], b[:k] + (y,) + b[k + 1:]) for a, b in weights]
                    if x or y else weights)
        ends = step
    images[A] = out = {B: from_flat(len(word), D, {})
                       for B in itertools.combinations(range(1, datum.n + 2), len(A))}
    for B, weights in ends.items():  # families of equal weight add up
        out[B].flat.update(Counter((a, b, 0, ()) for a, b in weights))
    return out


def _generators(datum, word):
    """{(i, j): image of x_ij} from the memo; callers must not mutate them."""
    return {(i, j): img for i in range(1, datum.n + 2)
            for (j,), img in _transfer(datum, word, (i,)).items()}


def generator_images(datum, word):
    """{(i, j): image of x_ij} for every pair of levels, as fresh elements."""
    gens = _generators(datum, tuple(word))
    return {ij: e.copy() for ij, e in gens.items()}


def minor_image(datum, word, A, B):
    """Image of the quantum minor with rows A and columns B (x_ij for A = (i,),
    B = (j,)): the sum of the weights of the vertex-disjoint path families."""
    A, B = _levels(datum.n + 1, tuple(A), tuple(B))
    return _transfer(datum, tuple(word), A)[B].copy()


def minor_expansion(A, B):
    """The permutation expansion of the quantum minor with rows A and columns
    B, as (coefficient, word) pairs: (-q)^{l(tau)} and the word
    x_{a_1 b_tau(1)} ... x_{a_k b_tau(k)} of generator labels."""
    out = []
    for tau in itertools.permutations(range(len(A))):
        inv = weyl.inversion_count(tau)
        out.append((coeff_qpow(inv, (-1) ** inv), tuple((a, B[t]) for a, t in zip(A, tau))))
    return out


def _row_expansion(datum, word, ctx, A, B):
    """The oracle's image of minor(A|B) for sorted levels, from the 1-element
    passes and the memo of ctx = _word_images(datum, word); do not mutate it."""
    D, _columns, images, memo = ctx
    if (A, B) not in memo:
        row = A and (images.get(A[:1]) or _transfer(datum, word, A[:1]))  # {(b,): x_{a_1 b}}
        if len(A) == 1:
            return row[B]
        flat = {} if A else dict(QTorusElement.one(len(word), D).flat)
        for t, bt in enumerate(B):
            x = row[bt,].flat
            rest = x and _row_expansion(datum, word, ctx, A[1:], B[:t] + B[t + 1:]).flat
            if rest:
                mul_into(flat, _shifted(x, t, (-1) ** t), rest, D)  # add (-q)^t x rest
        memo[A, B] = from_flat(len(word), D, flat)
    return memo[A, B]


def _shifted(flat, e, v):
    """The flat term map v q^e flat, v a nonzero rational."""
    return {(a, b, qe + e, g): v * x for (a, b, qe, g), x in flat.items()}


def minor_image_oracle(datum, word, A, B):
    """Image of minor(A|B) by the first-row expansion
    det_q(A|B) = sum_t (-q)^t x_{a_1 b_t} det_q(A - a_1 | B - b_t), t counted
    from 0: the check for minor_image.  It is the permutation expansion
    sum_tau (-q)^{l(tau)} x_{a_1 b_tau(1)} ... x_{a_k b_tau(k)} regrouped, as
    l(tau) = t + l(rest) when tau sends the first row to column t, the
    coefficients are central and the torus product is associative.  It reads
    only the generator images and its own smaller expansions, never the
    transfer pass's larger minors."""
    word = tuple(word)
    A, B = _levels(datum.n + 1, tuple(A), tuple(B))
    return _row_expansion(datum, word, _word_images(datum, word), A, B).copy()


# ---------------------------------------------------------------------------
# expression grammar: expr := factor ("*" factor)*;
#                     factor := atom ("^" integer)?;
#                     atom := "x" digit digit | "minor(" digits "|" digits ")";
# x_ij parses as minor(i|j).  A token is an integer (an optional "-" and
# ASCII digits), "minor", or one character; whitespace separates tokens.
_TOKEN = re.compile(r"(-?[0-9]+)|minor|\S")


def _tokenize(text):
    tokens = []
    for match in _TOKEN.finditer(text):
        tok, at = match.group(), match.start()
        if match.group(1):
            tokens.append(("int", tok, at))
        elif tok == "minor" or tok in "*^|()x":
            tokens.append((tok, tok, at))
        else:
            raise ParseError("bad integer" if tok == "-" else f"unexpected character {tok!r}", at)
    tokens.append(("end", "", len(text)))
    return tokens


def parse_expression(text):
    """Parse the product grammar into a list of (rows, cols, power) factors,
    rows and cols tuples of levels; x_ij is the minor ((i,), (j,))."""
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]]

    def take(kind):
        tok = tokens[pos[0]]
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        pos[0] += 1
        return tok

    def atom():
        tok = peek()
        if tok[0] == "x":
            take("x")
            _, digits, at = take("int")
            if len(digits) != 2 or not digits.isdigit():
                raise ParseError("generator needs two digits, like x12", at)
            return (int(digits[0]),), (int(digits[1]),)
        if tok[0] == "minor":
            take("minor")
            take("(")
            rows = take("int")
            if not rows[1].isdigit():
                raise ParseError("row list must be digits", rows[2])
            take("|")
            cols = take("int")
            if not cols[1].isdigit():
                raise ParseError("column list must be digits", cols[2])
            take(")")
            r, c = (tuple(map(int, t[1])) for t in (rows, cols))
            if len(set(r)) != len(r) or len(set(c)) != len(c):
                raise ParseError("repeated level in minor", rows[2])
            if len(r) != len(c):
                raise ParseError("minor needs equal row and column counts", rows[2])
            return r, c
        raise ParseError(f"expected an atom, found {tok[1]!r}", tok[2])

    def factor():
        rows, cols = atom()
        if peek()[0] != "^":
            return rows, cols, 1
        take("^")
        return rows, cols, int(take("int")[1])

    factors = [factor()]
    while peek()[0] == "*":
        take("*")
        factors.append(factor())
    take("end")
    return factors


def expression_image(datum, word, expr):
    """Image of a product expression (a string): the left-to-right product
    of its factors' minor images."""
    factors = parse_expression(expr)
    word = tuple(word)
    out = QTorusElement.one(len(word), torus_diagonal(datum, word))
    for rows, cols, power in factors:
        out = out * minor_image(datum, word, rows, cols) ** power
    return out


# ---------------------------------------------------------------------------
# homomorphism verification


@functools.lru_cache(maxsize=None)
def quantum_matrix_relations(n1):
    """The defining relations of C_q[SL_{n1}] as (name, lhs, rhs) triples.

    Each side is a list of (coefficient, word) terms, a coefficient being a
    Laurent polynomial in q and a word a tuple of generator labels (i, j) read
    left to right.  The order is: x_ij x_il =
    q x_il x_ij (j < l) and x_ij x_kj = q x_kj x_ij (i < k), then for i < k,
    j < l every x_il x_kj = x_kj x_il, then every commutator [x_ij, x_kl] =
    (q - q^{-1}) x_il x_kj, and det_q = 1 last.  Callers must not mutate it.
    """
    one, q, minus_one = coeff_qpow(0), coeff_qpow(1), coeff_qpow(0, -1)
    q_minus_qinv = {(1, ()): 1, (-1, ()): -1}
    levels = range(1, n1 + 1)
    x = {(i, j): (i, j) for i in levels for j in levels}  # one tuple per label
    rels = []
    for i in levels:
        for j in levels:
            rels += [(f"x{i}{j} x{i}{l} = q x{i}{l} x{i}{j}", [(one, (x[i, j], x[i, l]))],
                      [(q, (x[i, l], x[i, j]))]) for l in levels if l > j]
            rels += [(f"x{i}{j} x{k}{j} = q x{k}{j} x{i}{j}", [(one, (x[i, j], x[k, j]))],
                      [(q, (x[k, j], x[i, j]))]) for k in levels if k > i]
    quads = [(i, j, k, l) for i in levels for k in levels if k > i
             for j in levels for l in levels if l > j]
    rels += [(f"x{i}{l} x{k}{j} = x{k}{j} x{i}{l}",
              [(one, (x[i, l], x[k, j]))], [(one, (x[k, j], x[i, l]))]) for i, j, k, l in quads]
    rels += [(f"[x{i}{j}, x{k}{l}] commutator",
              [(one, (x[i, j], x[k, l])), (minus_one, (x[k, l], x[i, j]))],
              [(q_minus_qinv, (x[i, l], x[k, j]))])
             for i, j, k, l in quads]
    coeffs = {tuple(c.items()): c for c in (one, q, minus_one)}  # det terms reuse these
    det = [(coeffs.setdefault(tuple(c.items()), c), tuple(map(x.get, labels)))
           for c, labels in minor_expansion(tuple(levels), tuple(levels))]
    rels.append(("det_q = 1", det, [(one, ())]))
    return tuple(rels)


def relation_differences(rels, images, start, apply_into, d=1):
    """(name, lhs - rhs) for each relation (name, lhs, rhs) of
    quantum_matrix_relations, the difference a flat map and q read as q^d:
    the one evaluator of the torus and module suites.  A word's value is its
    letters' flat images applied right to left to start by
    apply_into(out, image, vec), which adds image vec into out.  A term's
    coefficient is folded into its first letter's image, so the product goes
    straight into the difference and only proper suffixes are memoised; a
    word with a zero image is skipped, and the empty word is c start.  The
    memo is a local map, not a closure, so it dies with the call.  images
    and start are left as they are."""
    acted = {(): start}
    diffs = []
    for name, lhs, rhs in rels:
        diff = {}
        for sign, side in ((1, lhs), (-1, rhs)):
            for c, word in side:
                if not all(map(images.__getitem__, word)):  # a zero factor: the value is 0
                    continue
                for r in range(len(word) - 1, 0, -1):
                    if word[r:] not in acted:
                        acted[word[r:]] = apply_into({}, images[word[r]], acted[word[r + 1:]])
                rest = acted[word[1:]]
                for (e, _), v in c.items():  # c is a Laurent polynomial in q
                    if word:
                        apply_into(diff, _shifted(images[word[0]], d * e, sign * v), rest)
                    else:  # start's keys end in (q_exp, gamma) too
                        add_scalars(diff, ((k[:-2] + (k[-2] + d * e, k[-1]), sign * v * x)
                                           for k, x in start.items()))
        diffs.append((name, diff))
    return diffs


def verify_relations(datum, word):
    """Check the quantum-matrix relations and det_q = 1 on the generator
    images; returns a list of (description, ok) pairs.  The relations other
    than det_q go through relation_differences with the torus product; det_q
    is the full minor's one path family, not its expansion."""
    word = tuple(word)
    g = {ij: e.flat for ij, e in _generators(datum, word).items()}
    one = QTorusElement.one(len(word), torus_diagonal(datum, word))
    *rels, (det_name, _, _) = quantum_matrix_relations(datum.n + 1)
    diffs = relation_differences(rels, g, one.flat,
                                 lambda out, image, vec: mul_into(out, image, vec, one.D))
    full = tuple(range(1, datum.n + 2))
    det = _transfer(datum, word, full)[full]
    return [(name, not diff) for name, diff in diffs] + [(det_name, det == one)]


# ---------------------------------------------------------------------------
# rendering


def render_ascii(diagram):
    """One 3-character cell per column and level; crossings show the
    traversable diagonal."""
    rows = []
    for level in range(diagram.levels, 0, -1):
        cells = []
        for crossing, sign in diagram.columns:
            if level == crossing + 1:
                cells.append("_/~" if sign > 0 else "~\\_")
            elif level == crossing:
                cells.append("~/_" if sign > 0 else "_\\~")
            else:
                cells.append("---")
        rows.append(f"{level:>2} " + " ".join(cells) + f" {level}")
    return "\n".join(rows)


def render_svg(diagram):
    """Minimal SVG rendering: horizontal wires plus one diagonal per column."""
    cell, margin = 40, 20  # pixels per column and per level, and around the wires
    m = len(diagram.word)
    n1 = diagram.levels
    width = 2 * margin + cell * max(m, 1)
    height = 2 * margin + cell * (n1 - 1)

    def ycoord(level):
        return margin + cell * (n1 - level)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
    ]
    for level in range(1, n1 + 1):
        y = ycoord(level)
        parts.append(
            f'<line x1="{margin}" y1="{y}" x2="{width - margin}" y2="{y}" stroke="black"/>'
        )
        parts.append(
            f'<text x="4" y="{y + 4}" font-size="12">{level}</text>'
        )
    for k, (crossing, sign) in enumerate(diagram.columns):
        x1 = margin + cell * k
        x2 = x1 + cell
        if sign > 0:
            y1, y2 = ycoord(crossing), ycoord(crossing + 1)
        else:
            y1, y2 = ycoord(crossing + 1), ycoord(crossing)
        parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{(x1 + x2) // 2}" y="{(y1 + y2) // 2}" font-size="10">y</text>'
        )
    parts.append("</svg>")
    return "".join(parts)
