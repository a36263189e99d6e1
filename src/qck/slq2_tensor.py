"""Typical rank-1 modules and tensor modules on the basis e_n.

Every module here is a torus module pulled back along generator images:
x^a y^b in the tensor quantum torus of D sends e_n to
gamma^b q^{b^T D n} e_{n-a} (torus_action), gamma^b = prod_k gamma_k^{b_k}.
A tensor module takes the images of wiring.generator_images; a typical
C_q[SL_2] module takes typical_images, in the one-factor torus
x y = q^d y x.  Parameters stay formal by default (coefficients then carry
monomials in g1 = gamma, g2 = eta for a single module, or g1..gm for the
tensor factors), and may be specialized to exact scalar * q-power values.

A module vector is one flat map {(n, q_exponent, gamma): rational}, no
value 0 and an all-zero gamma spelled (), the shape of QTorusElement.flat;
n is a tuple with one entry per torus factor.  torus_action adds into a
given map, the shape of qtorus.mul_into; every other sum goes through
qtorus.add_scalars, into a map that shares nothing with its operands.

Both relation suites evaluate the table once, by wiring.relation_differences
with torus_action on a formal basis vector, so one check covers every
index.  Acting on e_n is acting on e_0 with each gamma_k replaced by
gamma_k Z_k, Z_k = q^{d_k n_k}; a rank-1 module has gamma_1 = 1 and Z in a
third gamma slot after gamma and eta.  Only a failing relation is searched,
over the ball max |n_k| <= N or the truncated rank-1 domain (N >= 0), by
substituting the Z (_nonzero_at), to name the failing vectors; the tensor
report's `checked` still counts the (2N+1)^m ball vectors.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import add, mul, sub

from . import weyl, wiring
from .qtorus import add_scalars, coeff_invert, coeff_mul, coeff_qpow, coeff_str

KINDS = ("Mminus", "Mplus", "Laurent", "HighestWeight", "LowestWeight")


def _check_param(name, p):
    """A specialised parameter is one nonzero rational times a q-power, the
    kind of coefficient coeff_invert inverts."""
    if p is not None and (len(p) != 1 or any(g != () or not v for (_e, g), v in p.items())):
        raise ValueError(f"parameter {name} = {coeff_str(p)} is not a nonzero rational "
                         "times a power of q")


def _formal(index, nslots):
    """The formal parameter in gamma slot index of nslots."""
    return {(0, tuple(int(k == index) for k in range(nslots))): 1}


class TypicalModuleSpec(namedtuple("TypicalModuleSpec", "kind gamma eta")):
    """kind plus parameters; a parameter is None (formal) or a coefficient
    dict holding one exact rational * q-power monomial."""

    __slots__ = ()

    def __new__(cls, kind, gamma=None, eta=None):
        if kind not in KINDS:
            raise ValueError(f"unknown module kind {kind!r}; the kinds are {', '.join(KINDS)}")
        _check_param("gamma", gamma)
        _check_param("eta", eta)
        return super().__new__(cls, kind, gamma, eta)

    def index_domain(self):
        """(lo, hi) bounds with None for unbounded."""
        if self.kind == "HighestWeight":
            return (0, None)
        if self.kind == "LowestWeight":
            return (None, 0)
        return (None, None)

    def illegal_laurent_index(self, d, bound):
        """For Laurent kind with both parameters specialized: the basis index
        i in [-bound, bound] where 1 + gamma*eta*q^{d(2i-1)} vanishes, if any."""
        if self.kind != "Laurent" or self.gamma is None or self.eta is None:
            return None
        # gamma and eta are each one rational times a q-power (_check_param)
        ((e, _g), v), = coeff_mul(self.gamma, self.eta).items()
        # 1 + v q^{e + d(2i-1)} = 0 needs v = -1 and e + d(2i-1) = 0
        if v != -1:
            return None
        num = -e + d
        if num % (2 * d) != 0:
            return None
        i = num // (2 * d)
        return i if abs(i) <= bound else None


def typical_images(spec, d=1):
    """The images {(i, j): flat term map} of the four generators in the
    one-factor torus x y = q^d y x, which acts by x e_i = e_{i-1} and
    y e_i = q^{di} e_i.  A formal gamma or eta is gamma slot 0 or 1 of
    three, slot 2 being left to Z.  The images are
      x11 = x + tau x y^2, tau = -1 (HighestWeight), gamma eta q^{-d}
            (Laurent), else 0;
      x22 = x^{-1} - x^{-1} y^2 (LowestWeight), else x^{-1};
      x12 = 0 (Mminus), gamma y (LowestWeight), else eta y;
      x21 = 0 (Mplus), -eta^{-1} q^d y (HighestWeight),
            -gamma^{-1} q^{-d} y (LowestWeight), else gamma y.
    The factor 1 - q^{2di} of x11 e_i (HighestWeight) or x22 e_i
    (LowestWeight) vanishes at the end of the domain, so no image leads
    out of it."""
    kind = spec.kind
    gamma, eta = (_formal(k, 3) if p is None else p for k, p in enumerate((spec.gamma, spec.eta)))
    tau = {"HighestWeight": coeff_qpow(0, -1),
           "Laurent": coeff_mul(coeff_mul(gamma, eta), coeff_qpow(-d))}.get(kind, {})
    x12 = {"Mminus": {}, "LowestWeight": gamma}.get(kind, eta)
    x21 = {"Mplus": {}, "HighestWeight": coeff_mul(coeff_invert(eta), coeff_qpow(d, -1)),
           "LowestWeight": coeff_mul(coeff_invert(gamma), coeff_qpow(-d, -1))}.get(kind, gamma)
    x22 = {"LowestWeight": coeff_qpow(0, -1)}.get(kind, {})
    images = {  # generator -> {(a, b): coefficient of x^a y^b}
        (1, 1): {(1, 0): coeff_qpow(0), (1, 2): tau},
        (1, 2): {(0, 1): x12},
        (2, 1): {(0, 1): x21},
        (2, 2): {(-1, 0): coeff_qpow(0), (-1, 2): x22},
    }
    return {ij: {((a,), (b,), e, g): v for (a, b), c in terms.items() for (e, g), v in c.items()}
            for ij, terms in images.items()}


def torus_action(out, flat, vec, D, params):
    """Add the torus element with flat term map flat acting on the flat
    vector vec = {(n, q_exp, gamma): rational} into out and return out, the
    shape of qtorus.mul_into: x^a y^b sends e_n to gamma^b q^{b^T D n} e_{n-a},
    where gamma^b is prod_k gamma_k^{b_k} and params[k] is gamma_k, None for
    a formal g{k+1}."""
    m = len(D)
    vec = vec.items()
    for (a, b, e1, g1), v1 in flat.items():
        # gamma^g1 gamma^b as one monomial: a specialised gamma_k is one (_check_param)
        gs = [g1, (0,) * m]
        for k, (p, bk) in enumerate(zip(params, b)):
            if p is None:
                gs.append((0,) * k + (bk,))
            elif bk:
                ((pe, pg), pv), = (p if bk > 0 else coeff_invert(p)).items()
                bk = abs(bk)
                e1, v1 = e1 + bk * pe, v1 * pv ** bk
                gs.append(tuple(bk * x for x in pg))
        g1 = tuple(map(sum, itertools.zip_longest(*gs, fillvalue=0)))
        g1 = g1 if any(g1) else ()
        bD = tuple(map(mul, b, D))
        for (n, e2, g2), v2 in vec:
            if g1 and g2:
                g = tuple(map(add, g1, g2))
                if not any(g):
                    g = ()
            else:
                g = g1 or g2
            key = (tuple(map(sub, n, a)), e1 + e2 + sum(map(mul, bD, n)), g)
            v = out.get(key, 0) + v1 * v2
            if v:
                out[key] = v
            else:  # no stored value is 0, so the key was there
                del out[key]
    return out


def verify_typical_relations(spec, N, d=1):
    """Check the rank-1 relations exactly on e_i over the truncated domain
    [lo, hi] = the kind's domain cut to [-N, N]: the n1 = 2 relation table of
    wiring, with q read as q^d.

    Each relation's difference is built once, by torus_action on a formal
    e_i with Z = q^{d i} (index j stands for e_{i+j}).  The difference is a
    Laurent polynomial in Z, so a zero one proves the relation at every i;
    a nonzero one is searched over
    [lo, hi] by setting Z = q^{d i}, which finds exactly the failures of
    acting on each e_i.

    For the Laurent kind with specialized parameters this also checks the
    nonvanishing of the x11 coefficients 1 + gamma eta q^{2i-1}, whose
    failure pins the excluded parameter values gamma eta = -q^{2k+1}.
    Failures are listed by i, then in table order.
    """
    if N < 0:
        raise ValueError(f"truncation N = {N} is negative")
    lo, hi = spec.index_domain()
    lo = -N if lo is None else max(lo, -N)
    hi = N if hi is None else min(hi, N)
    params = [_formal(2, 3)]
    diffs = wiring.relation_differences(
        wiring.quantum_matrix_relations(2), typical_images(spec, d), {((0,), 0, ()): 1},
        lambda out, image, vec: torus_action(out, image, vec, (d,), params), d)
    bad = [(name, diff) for name, diff in diffs if diff]
    excluded = spec.illegal_laurent_index(d=d, bound=N)
    failures = []
    for i in range(lo, hi + 1):
        failures += [(name, i) for name, diff in bad if _nonzero_at(diff, (d * i,))]
        if i == excluded:
            failures.append(("laurent coefficient 1 + gamma eta q^{2i-1} vanishes", i))
    return {"ok": not failures, "failures": failures, "range": (lo, hi)}


# ---------------------------------------------------------------------------
# tensor modules on e_n, n in Z^m


class TensorModule:
    """The tensor module attached to a signed word, with per-factor
    parameters gamma_k (None keeps gamma_k formal as g{k+1})."""

    def __init__(self, datum, word, params=None):
        self.datum = datum
        self.word = tuple(word)
        weyl.split_double_word(datum, self.word)
        self.m = len(self.word)
        self.D = wiring.torus_diagonal(datum, self.word)
        if params is None:
            params = [None] * self.m
        if len(params) != self.m:
            raise ValueError("need one parameter per tensor factor")
        for k, p in enumerate(params):
            _check_param(f"g{k + 1}", p)
        self.params = list(params)

    def element_action(self, u, vec):
        """u acting on the flat vector vec by torus_action with this
        module's parameters."""
        if u.m != self.m or u.D != self.D:
            raise ValueError("element lives in a different torus")
        return torus_action({}, u.flat, vec, self.D, self.params)

    def basis_vector(self, n, coeff=None):
        """coeff e_n as a flat vector, by default e_n; a formal coeff carries
        m gamma exponents."""
        n = tuple(n)
        if len(n) != self.m:
            raise ValueError(f"index {list(n)} has length {len(n)}, the word has {self.m} letters")
        coeff = coeff_qpow(0) if coeff is None else coeff
        if any(g and len(g) != self.m for _e, g in coeff):
            raise ValueError(f"coefficient {coeff_str(coeff)} needs {self.m} gamma exponents")
        return add_scalars({}, (((n, e, g if any(g) else ()), v) for (e, g), v in coeff.items()))


def verify_tensor_relations(datum, word, N, params=None):
    """Check the quantum-matrix relations through the module action on every
    basis vector e_n at once; exact coefficient equality throughout.

    Acting on e_n is acting on e_0 with each parameter gamma_k replaced by
    gamma_k Z_k, Z_k = q^{d_k n_k}, and every index shifted by n.  So each
    relation's difference is built once on that formal e_0, with Z_k in
    gamma slot m + k, and a zero difference proves the relation for all n.
    A nonzero one is searched for failing n over the ball max |n_k| <= N
    (n first, then the relations in order) by setting Z_k = q^{d_k n_k},
    which finds exactly the failures of acting on each ball vector.
    `checked` counts the (2N+1)^m ball vectors either way."""
    if N < 0:
        raise ValueError(f"truncation N = {N} is negative")
    mod = TensorModule(datum, word, params=params)
    m = mod.m
    lifted = [coeff_mul(p or _formal(k, 2 * m), _formal(m + k, 2 * m))
              for k, p in enumerate(mod.params)]
    g = {ij: e.flat for ij, e in wiring.generator_images(datum, word).items()}
    diffs = wiring.relation_differences(
        wiring.quantum_matrix_relations(datum.n + 1), g, mod.basis_vector((0,) * m),
        lambda out, image, vec: torus_action(out, image, vec, mod.D, lifted))
    bad = [(name, diff) for name, diff in diffs if diff]
    ball = itertools.product(range(-N, N + 1), repeat=m) if bad else ()
    failures = list(itertools.islice(((name, n) for n in ball for name, diff in bad
                                      if _nonzero_at(diff, tuple(map(mul, mod.D, n)))), 20))
    return {"ok": not failures, "failures": failures, "checked": (2 * N + 1) ** m}


def _nonzero_at(diff, zq):
    """Whether a formal difference survives the substitution of the q-powers
    zq for its Z slots, the last len(zq) gamma slots: each key
    (n, e, gamma + Z) becomes (n, e + sum_k Z_k zq_k, gamma)."""
    k = -len(zq)  # a key with no gamma slots has g = ()
    return bool(add_scalars({}, (((n, e + sum(map(mul, g[k:], zq)), g[:k] if any(g[:k]) else ()), v)
                                 for (n, e, g), v in diff.items())))
