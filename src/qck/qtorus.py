"""Exact arithmetic in tensor quantum tori.

Elements are finite sums of normal-ordered monomials x^a y^b with a, b in
Z^m, where factor k satisfies x_k y_k = q^{d_k} y_k x_k.  Coefficients are
Laurent polynomials in q over Q, optionally carrying monomials in formal
parameters gamma_1, gamma_2, ...; a coefficient maps (q_exponent,
gamma_exponent_tuple) to exact rationals (ints or Fractions), never to 0,
and an all-zero gamma is spelled ().

An element stores one flat map {(a, b, q_exponent, gamma): rational}, as a
module vector of slq2_tensor is {(n, q_exponent, gamma): rational}.  A
product (mul_into) and a sum (add_scalars) each fill a new map of immutable
rationals, shared with no operand.  group_coefficients gives the nested
map {lead: coefficient} of such a flat map, built afresh on each call:
QTorusElement.terms is {(a, b): coefficient}, and writing to it leaves the
element as it was.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, neg


class ShapeMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# coefficients: {(q_exp, gamma_tuple): rational}


def coeff_qpow(e, mult=1):
    return {(e, ()): mult} if mult else {}


def add_scalars(out, items):
    """Add the (key, rational) pairs of items into the map out and return
    out; a key whose value sums to zero is dropped."""
    for key, v in items:
        nv = out[key] + v if key in out else v
        if nv:
            out[key] = nv
        elif key in out:
            del out[key]
    return out


def _gamma_sum(g1, g2):
    """The gamma exponent of a product, an all-zero sum spelled ()."""
    if not (g1 and g2):
        return g1 or g2
    g = tuple(map(add, g1, g2))
    return g if any(g) else ()


def coeff_mul(c1, c2):
    return add_scalars({}, (((e1 + e2, _gamma_sum(g1, g2)), v1 * v2)
                            for (e1, g1), v1 in c1.items() for (e2, g2), v2 in c2.items()))


def _reciprocal(v):
    """1 / v for a nonzero rational v, an int when it is one."""
    f = Fraction(1) / v
    return f if f.denominator != 1 else f.numerator


def coeff_invert(c):
    """Inverse of an invertible coefficient (a single q-gamma monomial)."""
    if len(c) != 1:
        raise ValueError("coefficient is not a monomial, cannot invert")
    ((e, g), v), = c.items()
    return {(-e, tuple(-x for x in g)): _reciprocal(v)}


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
        add_scalars(c, [((e, tuple(gamma) if any(gamma) else ()), Fraction(num, den))])
    return {key: v if v.denominator != 1 else v.numerator for key, v in c.items()}


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


def group_coefficients(flat):
    """The nested map {lead: {(q_exp, gamma): rational}} of the flat map
    {(*lead, q_exp, gamma): rational}, built afresh."""
    out = {}
    for key, v in flat.items():
        out.setdefault(key[:-2], {})[key[-2:]] = v
    return out


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


def mul_into(out, left, right, D):
    """Add the product of the flat term maps left and right, in the torus
    with diagonal D, into out and return out.  On monomials
    (x^a y^b)(x^a' y^b') = q^{-b^T D a'} x^{a+a'} y^{b+b'}."""
    right = right.items()
    for (a1, b1, e1, g1), v1 in left.items():
        bD = tuple(map(mul, b1, D))
        for (a2, b2, e2, g2), v2 in right:
            if g1 and g2:
                g = tuple(map(add, g1, g2))
                if not any(g):
                    g = ()
            else:
                g = g1 or g2
            key = (tuple(map(add, a1, a2)), tuple(map(add, b1, b2)),
                   e1 + e2 - sum(map(mul, bD, a2)), g)
            v = out.get(key, 0) + v1 * v2
            if v:
                out[key] = v
            else:  # no stored value is 0, so the key was there
                del out[key]
    return out


def from_flat(m, D, flat):
    """The element with the flat term map flat, taken as it is."""
    out = QTorusElement.__new__(QTorusElement)
    out.m, out.D, out.flat = m, D, flat
    return out


class QTorusElement:
    """Finite sum of normal-ordered monomials in the tensor quantum torus
    with commutation x_k y_k = q^{d_k} y_k x_k per factor; flat maps each
    (a, b, q_exp, gamma) to the nonzero rational of that term."""

    __slots__ = ("m", "D", "flat")

    def __init__(self, m, D, terms=None):
        self.m = m
        self.D = tuple(D)
        if len(self.D) != m:
            raise ShapeMismatch("diagonal length != factor count")
        self.flat = {}
        for (a, b), c in (terms or {}).items():
            if len(a) != m or len(b) != m:
                raise ShapeMismatch("monomial length != factor count")
            a, b = tuple(a), tuple(b)
            add_scalars(self.flat, (((a, b, e, g if any(g) else ()), v) for (e, g), v in c.items()))

    @property
    def terms(self):
        """The nested map {(a, b): {(q_exp, gamma): rational}}, built afresh."""
        return group_coefficients(self.flat)

    def copy(self):
        return from_flat(self.m, self.D, dict(self.flat))

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
        return from_flat(self.m, self.D, add_scalars(dict(self.flat), other.flat.items()))

    def __neg__(self):
        return from_flat(self.m, self.D, {k: -v for k, v in self.flat.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        return from_flat(self.m, self.D, mul_into({}, self.flat, other.flat, self.D))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        if not k:
            return QTorusElement.one(self.m, self.D)
        out, base = None, self
        while True:  # square only while a higher bit is left
            if k & 1:
                out = base.copy() if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def __eq__(self, other):
        if not isinstance(other, QTorusElement):
            return NotImplemented
        # no zero rational is stored, so equal elements have equal flat maps
        return self.m == other.m and self.D == other.D and self.flat == other.flat

    # -- units, supports ----------------------------------------------------

    def as_unit(self):
        """The ((a, b), coeff) of a one-term element with monomial invertible
        coefficient, else None."""
        if len(self.flat) != 1:
            return None
        ((a, b, e, g), v), = self.flat.items()
        return (a, b), {(e, g): v}

    def inverse(self):
        """Inverse of a unit, the power -1; raises ValueError for non-units."""
        if len(self.flat) != 1:
            raise ValueError("negative power of a non-unit element")
        ((a, b, e, g), v), = self.flat.items()
        # (v q^e x^a y^b)^{-1} = v^{-1} q^{-e - b^T D a} x^{-a} y^{-b}
        key = (tuple(map(neg, a)), tuple(map(neg, b)),
               -e - sum(map(mul, map(mul, b, self.D), a)), tuple(map(neg, g)))
        return from_flat(self.m, self.D, {key: _reciprocal(v)})

    def supp_x(self):
        return {a for (a, _b, _e, _g) in self.flat}

    def multiplicity(self, a):
        a = tuple(a)
        return len({b for (aa, b, _e, _g) in self.flat if aa == a})

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {
            "m": self.m,
            "D": list(self.D),
            "terms": [
                {"a": list(a), "b": list(b), "coeff": coeff_to_json(c)}
                for (a, b), c in sorted(self.terms.items())  # each (a, b) once
            ],
        }

    def __repr__(self):
        parts = []
        for (a, b), c in sorted(self.terms.items()):
            mono = " | ".join("".join(f"{v}{k + 1}" + (f"^{p}" if p != 1 else "")
                                      for v, p in (("x", a[k]), ("y", b[k])) if p) or "1"
                              for k in range(self.m))
            cs = coeff_str(c)
            parts.append(("" if cs == "1" else f"({cs})*") + f"({mono})")
        return " + ".join(parts) or "0"
