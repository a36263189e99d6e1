"""Exact arithmetic in tensor quantum tori.

Elements are finite sums of normal-ordered monomials x^a y^b with a, b in
Z^m, where factor k satisfies x_k y_k = q^{d_k} y_k x_k.  Coefficients are
Laurent polynomials in q over Q, optionally carrying monomials in formal
parameters gamma_1, gamma_2, ...; they are stored as dicts mapping
(q_exponent, gamma_exponent_tuple) to exact rationals (Python ints or
Fractions).  Zero coefficients are never stored, neither as a rational in
a coefficient nor as an empty coefficient in a sum.

Every sparse sum (torus terms, module vectors) is built by `accumulate`.
The map it fills owns its coefficients: each is copied when it enters the
map and updated in place afterwards, so start from an existing map m with
`accumulate({}, m.items())`, never with `dict(m)`, whose coefficients would
still be shared with m.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul


class ShapeMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# coefficients: {(q_exp, gamma_tuple): rational}


def coeff_qpow(e, mult=1):
    return {(e, ()): mult} if mult else {}


def coeff_add(c1, c2):
    out = dict(c1)
    for key, v in c2.items():
        nv = out.get(key, 0) + v
        if nv:
            out[key] = nv
        elif key in out:
            del out[key]
    return out


def accumulate(out, items):
    """Add the (key, coefficient) pairs of items into the sparse map out and
    return out; a key whose coefficient sums to zero is dropped.  A
    coefficient is copied on entry, then merged into in place."""
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


def coeff_neg(c):
    return {k: -v for k, v in c.items()}


def coeff_mul(c1, c2):
    out = {}
    for (e1, g1), v1 in c1.items():
        for (e2, g2), v2 in c2.items():
            if g1 and g2:
                g = tuple(a + b for a, b in zip(g1, g2))
                if not any(g):
                    g = ()
            else:
                g = g1 or g2
            key = (e1 + e2, g)
            nv = out.get(key, 0) + v1 * v2
            if nv:
                out[key] = nv
            elif key in out:
                del out[key]
    return out


def coeff_shift(c, qshift):
    if qshift == 0:
        return dict(c)
    return {(e + qshift, g): v for (e, g), v in c.items()}


def coeff_invert(c):
    """Inverse of an invertible coefficient (a single q-gamma monomial)."""
    if len(c) != 1:
        raise ValueError("coefficient is not a monomial, cannot invert")
    ((e, g), v), = c.items()
    return {(-e, tuple(-x for x in g)): Fraction(1, 1) / v}


def coeff_to_json(c):
    items = sorted(c.items(), key=lambda kv: (kv[0][0], kv[0][1]))
    out = []
    for (e, g), v in items:
        f = Fraction(v)
        out.append({"q": e, "gamma": list(g), "num": f.numerator, "den": f.denominator})
    return out


def coeff_from_json(data):
    """The coefficient written by coeff_to_json, terms with equal (q, gamma)
    added up; malformed input raises ValueError naming the field."""
    if not isinstance(data, list):
        raise ValueError(f"a coefficient is a list of terms, not {data!r}")
    c = {}
    for item in data:
        e, gamma, num, den = json_fields(item, "coefficient term",
                                         q=int, gamma="ints", num=int, den=int)
        if not den:
            raise ValueError("coefficient term field 'den' is 0")
        key = (e, tuple(gamma) if any(gamma) else ())
        v = c.pop(key, 0) + Fraction(num, den)
        if v:
            c[key] = v if v.denominator != 1 else v.numerator
    return c


def json_fields(data, what, **kinds):
    """The values of the named fields of the JSON object data, in order.  A
    kind is int, str, list, or "ints" for a list of integers; a missing or
    mistyped field raises ValueError naming it."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} {data!r} is not a JSON object")
    values = []
    for name, kind in kinds.items():
        if name not in data:
            raise ValueError(f"{what} lacks field {name!r}")
        x = data[name]
        if kind == "ints":
            if not isinstance(x, list) or any(type(y) is not int for y in x):
                raise ValueError(f"{what} field {name!r} is {x!r}, not a list of integers")
        elif type(x) is not kind:
            raise ValueError(f"{what} field {name!r} is {x!r}, not of type {kind.__name__}")
        values.append(x)
    return values


def coeff_str(c):
    if not c:
        return "0"
    parts = []
    for (e, g), v in sorted(c.items()):
        s = str(v)
        if e:
            s += f"*q^{e}" if e != 1 else "*q"
        for i, gi in enumerate(g):
            if gi:
                s += f"*g{i + 1}^{gi}" if gi != 1 else f"*g{i + 1}"
        parts.append(s)
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# elements


class QTorusElement:
    """Finite sum of normal-ordered monomials in the tensor quantum torus
    with commutation x_k y_k = q^{d_k} y_k x_k per factor.

    terms maps (a, b) pairs of integer tuples to coefficient dicts; zero
    coefficients are never stored.
    """

    __slots__ = ("m", "D", "terms")

    def __init__(self, m, D, terms=None):
        self.m = m
        self.D = tuple(D)
        if len(self.D) != m:
            raise ShapeMismatch("diagonal length != factor count")
        self.terms = {}
        if terms:
            for (a, b), c in terms.items():
                if len(a) != m or len(b) != m:
                    raise ShapeMismatch("monomial length != factor count")
                c = {k: v for k, v in c.items() if v}  # store no zero rational
                if c:
                    self.terms[(tuple(a), tuple(b))] = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, m, D):
        return cls.monomial(m, D, (0,) * m, (0,) * m)

    @classmethod
    def monomial(cls, m, D, a, b, coeff=None):
        return cls(m, D, {(tuple(a), tuple(b)): coeff if coeff is not None else coeff_qpow(0)})

    # -- ring structure -----------------------------------------------------

    def _check_compatible(self, other):
        if self.m != other.m or self.D != other.D:
            raise ShapeMismatch("elements live in different tori")

    def __add__(self, other):
        self._check_compatible(other)
        out = QTorusElement(self.m, self.D)
        out.terms = accumulate(accumulate({}, self.terms.items()), other.terms.items())
        return out

    def __neg__(self):
        out = QTorusElement(self.m, self.D)
        out.terms = {k: coeff_neg(c) for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Product with normal ordering: on monomials
        (x^a y^b)(x^a' y^b') = q^{-b^T D a'} x^{a+a'} y^{b+b'}."""
        self._check_compatible(other)
        right = other.terms.items()
        products = []
        for (a1, b1), c1 in self.terms.items():
            bD = tuple(map(mul, b1, self.D))
            for (a2, b2), c2 in right:
                products.append(((tuple(map(add, a1, a2)), tuple(map(add, b1, b2))),
                                 coeff_shift(coeff_mul(c1, c2), -sum(map(mul, bD, a2)))))
        out = QTorusElement(self.m, self.D)
        out.terms = accumulate({}, products)
        return out

    def scale(self, coeff):
        out = QTorusElement(self.m, self.D)
        for k, c in self.terms.items():
            nc = coeff_mul(c, coeff)
            if nc:
                out.terms[k] = nc
        return out

    def __pow__(self, k):
        if k < 0:
            unit = self.as_unit()
            if unit is None:
                raise ValueError("negative power of a non-unit element")
            return self.inverse() ** (-k)
        if not k:
            return QTorusElement.one(self.m, self.D)
        out, base = None, self
        while True:  # square only while a higher bit is left
            if k & 1:
                out = QTorusElement(self.m, self.D, base.terms) if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def __eq__(self, other):
        if not isinstance(other, QTorusElement):
            return NotImplemented
        # no zero coefficient is stored, so equal elements have equal term maps
        return self.m == other.m and self.D == other.D and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    # -- units, supports ----------------------------------------------------

    def as_unit(self):
        """The ((a, b), coeff) of a one-term element with monomial invertible
        coefficient, else None."""
        if len(self.terms) != 1:
            return None
        ((key, c),) = self.terms.items()
        if len(c) != 1:
            return None
        return key, dict(c)

    def inverse(self):
        """Inverse of a unit; raises for non-units."""
        unit = self.as_unit()
        if unit is None:
            raise ValueError("element is not a unit")
        (a, b), c = unit
        # (x^a y^b)^{-1} = q^{-b^T D a} x^{-a} y^{-b}
        shift = -sum(x * d * y for x, y, d in zip(b, a, self.D))
        inv_a = tuple(-x for x in a)
        inv_b = tuple(-x for x in b)
        coeff = coeff_shift(coeff_invert(c), shift)
        return QTorusElement.monomial(self.m, self.D, inv_a, inv_b, coeff)

    def supp_x(self):
        return {a for (a, _b) in self.terms.keys()}

    def multiplicity(self, a):
        a = tuple(a)
        return sum(1 for (aa, _bb) in self.terms.keys() if aa == a)

    # -- serialization ------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))

    def to_json(self):
        return {
            "m": self.m,
            "D": list(self.D),
            "terms": [
                {"a": list(a), "b": list(b), "coeff": coeff_to_json(c)}
                for (a, b), c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data):
        """The element written by to_json, terms with equal (a, b) added up;
        malformed input raises ValueError naming the field."""
        m, D, items = json_fields(data, "torus element", m=int, D="ints", terms=list)
        fields = (json_fields(t, "torus term", a="ints", b="ints", coeff=list) for t in items)
        terms = accumulate({}, (((tuple(a), tuple(b)), coeff_from_json(c)) for a, b, c in fields))
        return cls(m, D, terms)

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for (a, b), c in self.sorted_terms():
            mono = []
            for k in range(self.m):
                piece = ""
                if a[k]:
                    piece += f"x{k + 1}^{a[k]}" if a[k] != 1 else f"x{k + 1}"
                if b[k]:
                    piece += f"y{k + 1}^{b[k]}" if b[k] != 1 else f"y{k + 1}"
                mono.append(piece or "1")
            cs = coeff_str(c)
            pre = "" if cs == "1" else f"({cs})*"
            parts.append(pre + "(" + " | ".join(mono) + ")")
        return " + ".join(parts)
