"""The three in-process workloads: seeded inputs, one operation, its check.

Each workload builds its operation list from the seed in `__init__` (part of
set-up), and offers `run(op)` (the timed work), `check(op, out)` (None or a
reason), `size(op)` (operations counted) and `warm_up()`.
"""

import itertools
import random
from fractions import Fraction

import checks
from qck import appendix_congruence, pivots, slq2_tensor, strings, weyl, wiring

W0_RANK3 = (1, 2, 1, 3, 2, 1)


class CellSweep:
    """Per-word invariants, Psi check and congruence check."""

    RANK3_WORDS = 198
    RANK4_LENGTHS = (7, 8, 9, 10, 11, 12)
    RANK4_PER_LENGTH = 3

    def __init__(self, seed):
        rng = random.Random(f"cell_sweep:{seed}")
        A3, A4 = weyl.type_a(3), weyl.type_a(4)
        words = weyl.all_double_words(A3, 6)
        by_length = {}
        for word in words:
            by_length.setdefault(len(word), []).append(word)
        # each length gets its share of the rank-3 words (69 % have length 6),
        # so every seed draws the same mix of sizes
        self.ops = [
            (A3, word)
            for length, group in sorted(by_length.items())
            for word in rng.sample(group, round(self.RANK3_WORDS * len(group) / len(words)))
        ]
        self.ops += [
            (A4, checks.random_double_word(rng, 4, length))
            for length in self.RANK4_LENGTHS
            for _ in range(self.RANK4_PER_LENGTH)
        ]

    def warm_up(self):
        for op in self.ops[-3:]:
            self.run(op)

    def size(self, op):
        return 1

    def run(self, op):
        datum, word = op
        return (
            strings.invariants(datum, word),
            strings.psi_check(datum, word),
            appendix_congruence.congruence_check(datum, word),
        )

    def check(self, op, out):
        datum, word = op
        inv, (psi_ok, psi_factors), congruence = out
        analysis = {
            "m": inv.m, "n": inv.n_dim, "d": inv.d, "s": inv.s, "k": inv.k,
            "multipliers": inv.multipliers, "psi_ok": psi_ok, "psi_factors": psi_factors,
        }
        return checks.check_analysis(datum.n, word, analysis) or checks.check_congruence(congruence)


class TorusImages:
    """Every quantum minor by path families and by permutation expansion,
    the relation suite, and disjoint-support pivot certificates."""

    RANK_LENGTHS = {2: (2, 3, 4, 5, 6), 3: (3, 4, 5, 6, 7, 8, 9), 4: (3, 4, 5, 6, 7, 8)}
    PER_LENGTH = 2
    DISJOINT = ((3, 4), (3, 5), (4, 4), (4, 6))  # (rank, length)

    def __init__(self, seed):
        rng = random.Random(f"torus_images:{seed}")
        data = {n: weyl.type_a(n) for n in (2, 3, 4)}
        self.minors = {
            n: [
                (A, B)
                for k in range(1, n + 2)
                for A in itertools.combinations(range(1, n + 2), k)
                for B in itertools.combinations(range(1, n + 2), k)
            ]
            for n in data
        }
        self.ops = [
            (data[2], checks.REF_WORD),
            (data[3], tuple(-e for e in W0_RANK3) + W0_RANK3),
        ]
        for n, lengths in self.RANK_LENGTHS.items():
            for length in lengths:
                for _ in range(self.PER_LENGTH):
                    self.ops.append((data[n], checks.random_double_word(rng, n, length)))
        for n, length in self.DISJOINT:
            letters = list(range(1, n + 1))
            rng.shuffle(letters)
            cut = rng.randint(1, n - 1)
            word = checks.random_double_word(rng, n, length, letters[:cut], letters[cut:])
            self.ops.append((data[n], word))

    def warm_up(self):
        self.run(self.ops[0])

    def size(self, op):
        return 1

    @staticmethod
    def disjoint(word):
        return not {-e for e in word if e < 0} & {e for e in word if e > 0}

    def run(self, op):
        datum, word = op
        minors = [
            (A, B, wiring.minor_image(datum, word, A, B),
             wiring.minor_image_oracle(datum, word, A, B))
            for A, B in self.minors[datum.n]
        ]
        relations = wiring.verify_relations(datum, word)
        extra = {}
        if word == checks.REF_WORD:
            extra = {label: wiring.expression_image(datum, word, label) for label in checks.REF_IMAGES}
        report = None
        if self.disjoint(word):
            cert = pivots.auto_certificate_disjoint(datum, word)
            report = cert and pivots.check_certificate(datum, cert)
        return minors, relations, extra, report

    def check(self, op, out):
        datum, word = op
        minors, relations, extra, report = out
        error = checks.check_images(datum.n, word, minors, relations, extra)
        if error is None and self.disjoint(word) and not (report and report.passed):
            error = "no passing automatic certificate on a disjoint-support word"
        return error


def _scalar(rng):
    """One specialised parameter: a proper fraction times a power of q. Every
    seed draws the same kind of number, so the arithmetic costs the same."""
    value = Fraction(rng.choice((-5, -3, -1, 1, 5, 7)), rng.choice((2, 3, 4)))
    return {(rng.randint(-2, 2), ()): value}


def _value(param):
    (value,) = param.values()
    return value


class TensorModule:
    """Truncated relation suites of tensor modules and rank-1 modules."""

    TENSOR_CASES = (  # (rank, word, N), parameters formal
        (2, (1, 2, 1, -1), 1),
        (2, (-1, -2, 1, 2), 1),
        (1, (-1, 1), 6),
        (2, (-1, 2), 6),
        (3, (-2, 3), 6),
        (2, (-1, 2, 1), 3),
    )
    SPECIALISED_CASES = ((2, (-1, 2), 4), (2, (1, 2, 1, -1), 1))
    RANK1_N = 20

    def __init__(self, seed):
        rng = random.Random(f"tensor_module:{seed}")
        self.ops = [
            ("tensor", weyl.type_a(rank), word, N, None) for rank, word, N in self.TENSOR_CASES
        ]
        for rank, word, N in self.SPECIALISED_CASES:
            params = [_scalar(rng) for _ in word[:-1]] + [None]  # last factor stays formal
            self.ops.append(("tensor", weyl.type_a(rank), word, N, params))
        for kind in slq2_tensor.KINDS:
            self.ops.append(("rank1", slq2_tensor.TypicalModuleSpec(kind=kind), self.RANK1_N, None))
            gamma, eta = _scalar(rng), _scalar(rng)
            while _value(gamma) * _value(eta) == -1:  # could hit an excluded value
                gamma, eta = _scalar(rng), _scalar(rng)
            spec = slq2_tensor.TypicalModuleSpec(kind=kind, gamma=gamma, eta=eta)
            self.ops.append(("rank1", spec, self.RANK1_N, None))
        for k in rng.sample(range(-5, 6), 3):  # excluded: gamma eta = -q^{2k+1}
            r, a = rng.choice((2, 3, 4)), rng.randint(-2, 2)
            gamma = {(a, ()): -r}
            eta = {(2 * k + 1 - a, ()): Fraction(1, r)}
            spec = slq2_tensor.TypicalModuleSpec(kind="Laurent", gamma=gamma, eta=eta)
            self.ops.append(("rank1", spec, self.RANK1_N, checks.laurent_excluded_index(k)))

    def warm_up(self):
        self.run(("tensor", weyl.type_a(1), (-1, 1), 2, None))

    def size(self, op):
        if op[0] == "tensor":
            return (2 * op[3] + 1) ** len(op[2])
        return 2 * op[2] + 1

    def run(self, op):
        if op[0] == "tensor":
            _, datum, word, N, params = op
            return slq2_tensor.verify_tensor_relations(datum, word, N, params=params)
        _, spec, N, _ = op
        return slq2_tensor.verify_typical_relations(spec, N)

    def check(self, op, out):
        return checks.check_relation_report(out, op[3] if op[0] == "rank1" else None)


WORKLOADS = {"cell_sweep": CellSweep, "torus_images": TorusImages, "tensor_module": TensorModule}
