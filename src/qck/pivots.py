"""Pivot elements and enough-pivot certificates.

An a-pivot element of type (I, k) has an x-support point c of multiplicity
one with a.c <= 0 on I and (a.c)_k < 0 (componentwise product), every other
support point sitting weakly above c on I and strictly above on k.  A
certificate lists, for a permutation n_1..n_m, one pivot claim per step with
I = [1,m] minus the already-used positions and k = n_t; each claim carries
two expressions: one whose image must be a unit with the pivot direction as
x-exponent, one whose image is the pivot element itself.

The built-in table covers the ten rank-2 double cells that need explicit
constructions; the remaining cells follow from disjoint supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import weyl, wiring
from .intlinalg import CrossCheckFailed
from .qtorus import json_fields


class InvalidType(ValueError):
    pass


class ExpressionNotUnit(ValueError):
    pass


def is_pivot(u, a, I, k):
    """Witness c if u is an a-pivot element of type (I, k), else None.

    The witness is unique when it exists (two witnesses would have to sit
    strictly above each other on component k).
    """
    a = tuple(a)
    I = frozenset(I)
    if k not in I:
        raise InvalidType(f"pivot position {k} not in index set {sorted(I)}")
    if any(x == 0 for x in a):
        raise InvalidType("pivot direction must have no zero entries")
    if len(a) != u.m:
        raise InvalidType("pivot direction length != factor count")
    supp = sorted(u.supp_x())
    witnesses = []
    for c in supp:
        if u.multiplicity(c) != 1:
            continue
        ac = tuple(x * y for x, y in zip(a, c))
        if any(ac[i - 1] > 0 for i in I) or ac[k - 1] >= 0:
            continue
        good = True
        for c2 in supp:
            if c2 == c:
                continue
            diff = tuple(x * (y2 - y) for x, y2, y in zip(a, c2, c))
            if any(diff[i - 1] < 0 for i in I) or diff[k - 1] <= 0:
                good = False
                break
        if good:
            witnesses.append(c)
    if len(witnesses) > 1:
        raise CrossCheckFailed(f"pivot witness is not unique: {witnesses}")
    return witnesses[0] if witnesses else None


@dataclass(frozen=True)
class PivotClaim:
    a_expr: str
    elem_expr: str


@dataclass(frozen=True)
class PivotCertificate:
    word: tuple
    order: tuple
    claims: tuple

    def __post_init__(self):
        m = len(self.word)
        if sorted(self.order) != list(range(1, m + 1)):
            raise InvalidType(f"order {self.order} is not a permutation of 1..{m}")
        if len(self.claims) != m:
            raise InvalidType("need exactly one claim per word letter")

    def claim_type(self, t):
        """(I, k) of the t-th claim (0-based), per the enough-pivots pattern."""
        m = len(self.word)
        used = set(self.order[:t])
        return frozenset(i for i in range(1, m + 1) if i not in used), self.order[t]

    def to_json(self):
        return {
            "word": weyl.format_word(self.word),
            "order": list(self.order),
            "claims": [
                {"a_expr": c.a_expr, "elem_expr": c.elem_expr} for c in self.claims
            ],
        }

    @classmethod
    def from_json(cls, data):
        """The certificate written by to_json; malformed input raises
        ValueError naming the field."""
        word, order, claims = json_fields(data, "certificate", word=str, order="ints", claims=list)
        return cls(
            word=weyl.parse_word(word),
            order=tuple(order),
            claims=tuple(PivotClaim(*json_fields(c, "certificate claim", a_expr=str, elem_expr=str))
                         for c in claims),
        )


@dataclass
class ClaimReport:
    index: int
    I: tuple
    k: int
    a: tuple = None
    witness: tuple = None
    supp_x: list = field(default_factory=list)
    passed: bool = False
    error: str = ""

    def to_json(self):
        return {
            "claim": self.index,
            "I": list(self.I),
            "k": self.k,
            "a": list(self.a) if self.a is not None else None,
            "witness": list(self.witness) if self.witness is not None else None,
            "supp_x": [list(c) for c in self.supp_x],
            "passed": self.passed,
            "error": self.error,
        }


@dataclass
class CertificateReport:
    word: tuple
    order: tuple
    claims: list
    passed: bool

    def to_json(self):
        return {
            "word": weyl.format_word(self.word),
            "order": list(self.order),
            "passed": self.passed,
            "claims": [c.to_json() for c in self.claims],
        }


def check_certificate(datum, cert):
    """Evaluate every claim of a certificate; a claim that does not parse,
    names a level out of range, or is not a unit where one is needed fails
    in the claim report rather than aborting the whole run.  A datum that is
    not type A is rejected with ValueError before any claim is evaluated."""
    if not datum.is_type_a:
        raise ValueError("pivot certificates need a type-A root datum")
    weyl.split_double_word(datum, cert.word)
    reports = []
    for t, claim in enumerate(cert.claims):
        I, k = cert.claim_type(t)
        rep = ClaimReport(index=t + 1, I=tuple(sorted(I)), k=k)
        try:
            a_img = wiring.expression_image(datum, cert.word, claim.a_expr)
            unit = a_img.as_unit()
            if unit is None:
                raise ExpressionNotUnit(
                    f"a_expr {claim.a_expr!r} does not evaluate to a unit"
                )
            (a, _b), _c = unit
            if any(x == 0 for x in a):
                raise ExpressionNotUnit(
                    f"a_expr {claim.a_expr!r} has zero x-exponent entries: {a}"
                )
            rep.a = a
            u = wiring.expression_image(datum, cert.word, claim.elem_expr)
            rep.supp_x = sorted(u.supp_x())
            witness = is_pivot(u, a, I, k)
            rep.witness = witness
            rep.passed = witness is not None
            if witness is None:
                rep.error = "no pivot witness"
        except (ValueError, IndexError) as exc:  # CrossCheckFailed is neither
            rep.error = str(exc)
        reports.append(rep)
    return CertificateReport(
        word=cert.word,
        order=cert.order,
        claims=reports,
        passed=all(r.passed for r in reports),
    )


def auto_certificate_disjoint(datum, word):
    """Certificate from disjoint supports, or None when supports intersect.

    With mu the sum of the fundamental weights over the support, the images
    of the principal-minor product (rows/columns [1, i]) and of the
    complementary product (rows/columns [i+1, n+1]) are the units x^{a} and
    x^{-a} with a = (1, ..., 1); the inverse unit is then a pivot element of
    every type, giving the same claim at every step.  The certificate is
    only built here: check_certificate is its one verifier.
    """
    if not datum.is_type_a:
        raise ValueError("disjoint-support certificates need a type-A root datum")
    word = tuple(word)
    w1, w2, supp = weyl.split_double_word(datum, word)
    if set(w1) & set(w2):
        return None
    n = datum.n
    m = len(word)

    def levels(seq):
        return "".join(str(v) for v in seq)

    a_parts = []
    elem_parts = []
    for i in sorted(supp):
        princ = levels(range(1, i + 1))
        comp = levels(range(i + 1, n + 2))
        a_parts.append(f"minor({princ}|{princ})")
        elem_parts.append(f"minor({comp}|{comp})")
    a_expr = " * ".join(a_parts) if a_parts else "minor(1|1)^0"
    elem_expr = " * ".join(elem_parts) if elem_parts else "minor(1|1)^0"
    claims = tuple(PivotClaim(a_expr=a_expr, elem_expr=elem_expr) for _ in range(m))
    return PivotCertificate(word=word, order=tuple(range(1, m + 1)), claims=claims)


# ---------------------------------------------------------------------------
# the ten explicit SL_3 constructions


def _row(pair, word, order, a_exprs, elem_exprs):
    m = len(word)
    if len(a_exprs) != m or len(elem_exprs) != m:
        raise CrossCheckFailed(f"table row {pair}: claim counts do not match the word length")
    return {
        "cell": pair,
        "certificate": PivotCertificate(
            word=word,
            order=order,
            claims=tuple(
                PivotClaim(a_expr=a, elem_expr=e) for a, e in zip(a_exprs, elem_exprs)
            ),
        ),
    }


TABLE1 = [
    _row(
        "(12),(12)",
        (-1, 1),
        (1, 2),
        ["x11"] * 2,
        ["x22"] * 2,
    ),
    _row(
        "(12),(123)",
        (-1, 1, 2),
        (1, 2, 3),
        ["x11 * x33"] * 3,
        ["x22", "x22", "x12"],
    ),
    _row(
        "(12),(132)",
        (-1, 2, 1),
        (1, 2, 3),
        ["x11 * x33"] * 3,
        ["x22"] * 3,
    ),
    _row(
        "(12),(13)",
        (-1, 1, 2, 1),
        (1, 2, 3, 4),
        ["x11 * minor(12|12)"] * 4,
        ["x23", "x23", "x33", "x12"],
    ),
    _row(
        "(123),(123)",
        (-1, -2, 1, 2),
        (3, 2, 4, 1),
        ["x32^2 * x11 * minor(12|12)"] * 4,
        ["x21", "x33", "x33", "x23"],
    ),
    _row(
        "(123),(132)",
        (-1, -2, 2, 1),
        (2, 3, 1, 4),
        ["x11 * minor(12|12)"] * 4,
        ["x33", "x33", "x22", "x22"],
    ),
    _row(
        "(123),(13)",
        (1, 2, 1, -1, -2),
        (3, 4, 2, 5, 1),
        ["x21^2 * x33 * minor(23|23)"] * 2 + ["x33 * minor(23|23)"] * 3,
        ["minor(13|12)", "minor(13|12)", "minor(12|12)", "minor(12|12)", "x12"],
    ),
    _row(
        "(132),(123)",
        (-2, -1, 1, 2),
        (2, 3, 1, 4),
        ["x11 * minor(12|12)"] * 4,
        ["minor(23|23)", "minor(23|23)", "x33", "x33"],
    ),
    _row(
        "(132),(13)",
        (1, 2, 1, -2, -1),
        (2, 3, 4, 1, 5),
        ["x33 * minor(13|12)^2 * minor(23|23)"] * 5,
        ["x21", "x21", "x21", "minor(23|13)", "minor(12|13)"],
    ),
    _row(
        "(13),(13)",
        (-1, 1, -2, 2, -1, 1),
        (3, 4, 1, 2, 5, 6),
        ["x13 * x31 * minor(12|23) * minor(23|12)"] * 6,
        ["x33", "x33", "x23", "x23", "x32", "x32"],
    ),
]


def table1_suite(datum):
    """Check all ten explicit certificates; returns the list of reports."""
    if datum.n != 2 or not datum.is_type_a:
        raise ValueError("the explicit table is for rank 2 (SL_3)")
    out = []
    for row in TABLE1:
        report = check_certificate(datum, row["certificate"])
        out.append({"cell": row["cell"], "report": report})
    return out
