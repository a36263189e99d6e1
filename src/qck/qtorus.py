"""Exact arithmetic in tensor quantum tori.

Elements are finite sums of normal-ordered monomials x^a y^b with a, b in
Z^m, where factor k satisfies x_k y_k = q^{d_k} y_k x_k, d_k nonzero.
Coefficients are Laurent polynomials in q over Q, optionally carrying
monomials in formal parameters gamma_1, gamma_2, ...; a coefficient maps
(q_exponent, gamma_exponent_tuple) to exact rationals (ints or Fractions),
never to 0, and an all-zero gamma is spelled ().

An element stores one flat map {(A, B, q_exponent, gamma): rational}, its
exponents packed (layout): A = sum_k a_k 2^{Wk} and B = sum_k b_k d_k
2^{W(m-1-k)}, signed W-bit fields kept in a guard -2^G <= x < 2^G.  So
a + a' is A + A', and b^T D a' is the field m-1 of B A'.  A product key
outside the guard raises GuardExceeded, and QTorusElement then multiplies
again at twice the guard: exact at every exponent.  Keys are unpacked
(terms, to_json, supp_x, multiplicity, as_unit, inverse) before anything
is sorted, as integer order is not tuple order.  A product (mul_into) and
a sum (add_scalars) each fill a new map of immutable rationals, shared
with no operand; QTorusElement.terms is the nested map {(a, b):
coefficient}, built afresh by group_coefficients.  Fraction is imported
only where a rational is built or written, so importing qtorus loads no
fractions.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from operator import add, mul, neg

from . import CrossCheckFailed


class ShapeMismatch(ValueError):
    pass


class GuardExceeded(CrossCheckFailed):
    """A product's exponent left the guard of its layout."""


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
    from fractions import Fraction
    f = Fraction(1) / v
    return f if f.denominator != 1 else f.numerator


def coeff_invert(c):
    """Inverse of an invertible coefficient (a single q-gamma monomial)."""
    if len(c) != 1:
        raise ValueError("coefficient is not a monomial, cannot invert")
    ((e, g), v), = c.items()
    return {(-e, tuple(-x for x in g)): _reciprocal(v)}


def coeff_to_json(c):
    from fractions import Fraction
    items = sorted(c.items(), key=lambda kv: (kv[0][0], kv[0][1]))
    out = []
    for (e, g), v in items:
        f = Fraction(v)
        out.append({"q": e, "gamma": list(g), "num": f.numerator, "den": f.denominator})
    return out


def coeff_from_json(data):
    """The coefficient written by coeff_to_json, terms with equal (q, gamma)
    added up; malformed input raises ValueError naming the field."""
    from fractions import Fraction
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
# packed exponent vectors

GUARD = 12  # the narrowest guard G: a stored field x has -2^G <= x < 2^G

Layout = namedtuple("Layout", "m guard width mask half shift dot_off off nlow")


@functools.lru_cache(maxsize=None)
def layout(m, guard=GUARD):
    """The packing of m signed fields with guard G = guard.  A dot product of
    two vectors in the guard has coefficients of size at most m 2^{2G},
    below 2^{W-2} for the width W = 2G + bitlen(m) + 2, so each field of the
    product is read exactly: add dot_off (2^{W-1} in fields 0..m-1), shift
    by W(m-1), mask, subtract half.  A key K is in the guard when
    (K + off) & nlow == 0."""
    width = 2 * guard + m.bit_length() + 2
    ones = sum(1 << (width * k) for k in range(m))
    half = 1 << (width - 1)
    return Layout(m, guard, width, (1 << width) - 1, half, width * max(m - 1, 0),
                  half * (ones or 1), ones << guard, ~(ones * ((2 << guard) - 1)))


def guard_for(bound):
    """The narrowest guard holding every field x with max(x, ~x) <= bound,
    i.e. -bound - 1 <= x <= bound."""
    guard = GUARD
    while bound >> guard:
        guard *= 2
    return guard


def pack(v, P):
    """The integer sum_k v_k 2^{Wk} of the vector v in the layout P."""
    return sum(x << (P.width * k) for k, x in enumerate(v))


def unpack(X, P):
    """The fields of the packed integer X, lowest first."""
    X += P.dot_off  # each field biased into [0, 2^W)
    W, mask, half = P.width, P.mask, P.half
    return tuple(((X >> W * k) & mask) - half for k in range(P.m))


def unpack_b(B, P, D):
    """The y-exponent b of the packed B = sum_k b_k d_k 2^{W(m-1-k)}."""
    return tuple(x // d for x, d in zip(unpack(B, P)[::-1], D))


def _pack(D, flat):
    """(layout, packed map) of the flat map keyed by (a, b, q_exp, gamma)
    with a and b tuples, in the narrowest guard that holds it."""
    keys = [(a, tuple(map(mul, b, D))[::-1]) for a, b, _e, _g in flat]
    P = layout(len(D), guard_for(max((max(x, ~x) for a, b in keys for x in a + b), default=0)))
    return P, {(pack(a, P), pack(b, P), e, g): v
               for (a, b), ((_a, _b, e, g), v) in zip(keys, flat.items())}


# ---------------------------------------------------------------------------
# elements


def mul_into(out, left, right, P):
    """Add the product of the flat term maps left and right of one torus,
    both packed by the layout P, into out and return out.  On
    monomials (x^a y^b)(x^a' y^b') = q^{-b^T D a'} x^{a+a'} y^{b+b'}.  A key
    outside the guard raises GuardExceeded, out then half filled."""
    shift, dot_off, mask, half, off, nlow = P.shift, P.dot_off, P.mask, P.half, P.off, P.nlow
    right = right.items()
    for (a1, b1, e1, g1), v1 in left.items():
        e1 += half  # the dot product's field is read as b^T D a' + half
        for (a2, b2, e2, g2), v2 in right:
            if g1 and g2:
                g = tuple(map(add, g1, g2))
                if not any(g):
                    g = ()
            else:
                g = g1 or g2
            a, b = a1 + a2, b1 + b2
            if (a + off | b + off) & nlow:
                raise GuardExceeded(f"a torus exponent left the guard 2^{P.guard}")
            key = (a, b, e1 + e2 - ((b1 * a2 + dot_off) >> shift & mask), g)
            v = out.get(key, 0) + v1 * v2
            if v:
                out[key] = v
            else:  # no stored value is 0, so the key was there
                del out[key]
    return out


def from_flat(P, D, flat):
    """The element with the flat term map flat, packed by P, taken as it is."""
    out = QTorusElement.__new__(QTorusElement)
    out.m, out.D, out.layout, out.flat = P.m, D, P, flat
    return out


class QTorusElement:
    """Finite sum of normal-ordered monomials in the tensor quantum torus
    with commutation x_k y_k = q^{d_k} y_k x_k per factor; flat maps each
    packed (A, B, q_exp, gamma) to the nonzero rational of that term."""

    __slots__ = ("m", "D", "layout", "flat")

    def __init__(self, m, D, terms=None):
        self.m = m
        self.D = tuple(D)
        if len(self.D) != m:
            raise ShapeMismatch("diagonal length != factor count")
        if not all(self.D):
            raise ValueError(f"diagonal {list(self.D)} has an entry 0")
        flat = {}
        for (a, b), c in (terms or {}).items():
            if len(a) != m or len(b) != m:
                raise ShapeMismatch("monomial length != factor count")
            a, b = tuple(a), tuple(b)
            add_scalars(flat, (((a, b, e, g if any(g) else ()), v) for (e, g), v in c.items()))
        self.layout, self.flat = _pack(self.D, flat)

    def _tuples(self):
        """The flat map keyed by (a, b, q_exp, gamma), a and b tuples."""
        P, D = self.layout, self.D
        return {(unpack(A, P), unpack_b(B, P, D), e, g): v for (A, B, e, g), v in self.flat.items()}

    def flat_at(self, P):
        """The flat map packed by the layout P, whose guard is no narrower."""
        if P == self.layout:
            return self.flat
        return {(pack(unpack(A, self.layout), P), pack(unpack(B, self.layout), P), e, g): v
                for (A, B, e, g), v in self.flat.items()}

    @property
    def terms(self):
        """The nested map {(a, b): {(q_exp, gamma): rational}}, built afresh."""
        return group_coefficients(self._tuples())

    def copy(self):
        return from_flat(self.layout, self.D, dict(self.flat))

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, m, D):
        return cls.monomial(m, D, (0,) * m, (0,) * m)

    @classmethod
    def monomial(cls, m, D, a, b, coeff=None):
        return cls(m, D, {(tuple(a), tuple(b)): coeff if coeff is not None else coeff_qpow(0)})

    # -- ring structure -----------------------------------------------------

    def _wider(self, other):
        """The wider of the two elements' layouts; they share one torus."""
        if self.m != other.m or self.D != other.D:
            raise ShapeMismatch("elements live in different tori")
        return max(self.layout, other.layout, key=lambda P: P.guard)

    def __add__(self, other):
        P = self._wider(other)
        return from_flat(P, self.D, add_scalars(dict(self.flat_at(P)), other.flat_at(P).items()))

    def __mul__(self, other):
        P = self._wider(other)
        while True:  # at twice the guard, the same product again
            try:
                return from_flat(P, self.D, mul_into({}, self.flat_at(P), other.flat_at(P), P))
            except GuardExceeded:
                P = layout(self.m, 2 * P.guard)

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
        if self.m != other.m or self.D != other.D:
            return False
        # no zero rational is stored, so equal elements have equal flat maps
        if self.layout == other.layout:
            return self.flat == other.flat
        return self._tuples() == other._tuples()

    # -- units, supports ----------------------------------------------------

    def as_unit(self):
        """The ((a, b), coeff) of a one-term element with monomial invertible
        coefficient, else None."""
        if len(self.flat) != 1:
            return None
        ((a, b, e, g), v), = self._tuples().items()
        return (a, b), {(e, g): v}

    def inverse(self):
        """Inverse of a unit, the power -1; raises ValueError for non-units."""
        if len(self.flat) != 1:
            raise ValueError("negative power of a non-unit element")
        ((a, b, e, g), v), = self._tuples().items()
        # (v q^e x^a y^b)^{-1} = v^{-1} q^{-e - b^T D a} x^{-a} y^{-b}
        key = (tuple(map(neg, a)), tuple(map(neg, b)),
               -e - sum(map(mul, map(mul, b, self.D), a)), tuple(map(neg, g)))
        P, flat = _pack(self.D, {key: _reciprocal(v)})
        return from_flat(P, self.D, flat)

    def supp_x(self):
        return {unpack(A, self.layout) for (A, _b, _e, _g) in self.flat}

    def multiplicity(self, a):
        a = tuple(a)
        return len({B for (A, B, _e, _g) in self.flat if unpack(A, self.layout) == a})

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {
            "m": self.m,
            "D": list(self.D),
            "terms": [
                {"a": list(a), "b": list(b), "coeff": coeff_to_json(c)}
                for (a, b), c in sorted(self.terms.items())  # each (a, b) once, tuple order
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
