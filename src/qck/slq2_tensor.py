"""Typical rank-1 modules and tensor modules on the basis e_n.

The five typical module kinds act by explicit basis formulas; parameters
stay formal by default (coefficients then carry monomials in g1 = gamma,
g2 = eta for a single module, or g1..gm for the tensor factors), and may be
specialized to exact scalar * q-power values.

Tensor modules use Borel-lifted one-sided factors only: x^a shifts the basis
index down by a, and y^b acts diagonally by prod_k gamma_k^{b_k} q^{b^T D n}.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import strings, weyl
from .qtorus import (
    QTorusElement,
    coeff_add,
    coeff_is_zero,
    coeff_mul,
    coeff_neg,
    coeff_qpow,
)

KINDS = ("Mminus", "Mplus", "Laurent", "HighestWeight", "LowestWeight")

GENERATORS = ("x11", "x12", "x21", "x22")


class IndexOutOfDomain(IndexError):
    pass


def _formal(index, nparams):
    g = [0] * nparams
    g[index] = 1
    return {(0, tuple(g)): 1}


def _formal_inv(index, nparams):
    g = [0] * nparams
    g[index] = -1
    return {(0, tuple(g)): 1}


def _coeff_inv_monomial(c):
    from .qtorus import coeff_invert

    return coeff_invert(c)


@dataclass(frozen=True)
class TypicalModuleSpec:
    """kind plus parameters; a parameter is None (formal) or a coefficient
    dict holding one exact rational * q-power monomial."""

    kind: str
    gamma: object = None
    eta: object = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown module kind {self.kind!r}")

    def gamma_coeff(self):
        return self.gamma if self.gamma is not None else _formal(0, 2)

    def eta_coeff(self):
        return self.eta if self.eta is not None else _formal(1, 2)

    def gamma_inv_coeff(self):
        if self.gamma is not None:
            return _coeff_inv_monomial(self.gamma)
        return _formal_inv(0, 2)

    def eta_inv_coeff(self):
        if self.eta is not None:
            return _coeff_inv_monomial(self.eta)
        return _formal_inv(1, 2)

    def index_domain(self):
        """(lo, hi) bounds with None for unbounded."""
        if self.kind == "HighestWeight":
            return (0, None)
        if self.kind == "LowestWeight":
            return (None, 0)
        return (None, None)

    def in_domain(self, i):
        lo, hi = self.index_domain()
        return (lo is None or i >= lo) and (hi is None or i <= hi)

    def illegal_laurent_index(self, d=1, bound=50):
        """For Laurent kind with both parameters specialized: the basis index
        i in [-bound, bound] where 1 + gamma*eta*q^{d(2i-1)} vanishes, if any."""
        if self.kind != "Laurent" or self.gamma is None or self.eta is None:
            return None
        prod = coeff_mul(self.gamma, self.eta)
        if len(prod) != 1:
            return None
        ((e, g), v), = prod.items()
        if g != () and any(g):
            return None
        # 1 + v q^{e + d(2i-1)} = 0 needs v = -1 and e + d(2i-1) = 0
        if v != -1:
            return None
        num = -e + d
        if num % (2 * d) != 0:
            return None
        i = num // (2 * d)
        return i if abs(i) <= bound else None


def typical_action(spec, generator, i, d=1):
    """Action of one quantum-matrix generator on the basis vector e_i, as a
    list of (index, coefficient) pairs.  d scales q to the node's q_i."""
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}")
    if not spec.in_domain(i):
        raise IndexOutOfDomain(f"index {i} outside the domain of {spec.kind}")
    kind = spec.kind
    qd = lambda e: coeff_qpow(d * e)  # noqa: E731

    if generator == "x11":
        if kind == "HighestWeight":
            if i == 0:
                return []
            c = coeff_add(coeff_qpow(0), {(2 * d * i, ()): -1})  # 1 - q^{2i}
            return [(i - 1, c)]
        if kind == "Laurent":
            ge = coeff_mul(spec.gamma_coeff(), spec.eta_coeff())
            c = coeff_add(coeff_qpow(0), coeff_mul(ge, qd(2 * i - 1)))
            return [(i - 1, c)] if not coeff_is_zero(c) else []
        return [(i - 1, coeff_qpow(0))]

    if generator == "x22":
        if kind == "LowestWeight":
            if i == 0:
                return []
            c = coeff_add(coeff_qpow(0), {(2 * d * i, ()): -1})  # 1 - q^{2i}
            return [(i + 1, c)]
        return [(i + 1, coeff_qpow(0))]

    if generator == "x12":
        if kind == "Mminus":
            return []
        if kind == "Mplus" or kind == "Laurent" or kind == "HighestWeight":
            c = coeff_mul(spec.eta_coeff(), qd(i))
            return [(i, c)]
        # LowestWeight: x12 e_i = gamma q^i e_i
        return [(i, coeff_mul(spec.gamma_coeff(), qd(i)))]

    # x21
    if kind == "Mplus":
        return []
    if kind == "Mminus" or kind == "Laurent":
        return [(i, coeff_mul(spec.gamma_coeff(), qd(i)))]
    if kind == "HighestWeight":
        c = coeff_mul(coeff_neg(spec.eta_inv_coeff()), qd(i + 1))
        return [(i, c)]
    # LowestWeight: x21 e_i = -gamma^{-1} q^{i-1} e_i
    return [(i, coeff_mul(coeff_neg(spec.gamma_inv_coeff()), qd(i - 1)))]


def apply_generator(spec, generator, vec, d=1):
    """Linear extension of typical_action to module vectors {index: coeff}."""
    out = {}
    for i, c in vec.items():
        for j, ac in typical_action(spec, generator, i, d=d):
            merged = coeff_add(out.get(j, {}), coeff_mul(c, ac))
            if merged:
                out[j] = merged
            elif j in out:
                del out[j]
    return out


def apply_word_of_generators(spec, gens, vec, d=1):
    for gen in reversed(gens):
        vec = apply_generator(spec, gen, vec, d=d)
    return vec


def verify_typical_relations(spec, N, d=1):
    """Check the rank-1 relations exactly on e_i over the truncated domain.

    For the Laurent kind with specialized parameters this also checks the
    nonvanishing of the x11 coefficients 1 + gamma eta q^{2i-1}, whose
    failure pins the excluded parameter values gamma eta = -q^{2k+1}.
    """
    lo, hi = spec.index_domain()
    lo = -N if lo is None else max(lo, -N)
    hi = N if hi is None else min(hi, N)
    failures = []
    relations = [
        ("x11 x12 = q x12 x11", ("x11", "x12"), ("x12", "x11"), d, None),
        ("x11 x21 = q x21 x11", ("x11", "x21"), ("x21", "x11"), d, None),
        ("x12 x22 = q x22 x12", ("x12", "x22"), ("x22", "x12"), d, None),
        ("x21 x22 = q x22 x21", ("x21", "x22"), ("x22", "x21"), d, None),
        ("x12 x21 = x21 x12", ("x12", "x21"), ("x21", "x12"), 0, None),
    ]
    for i in range(lo, hi + 1):
        e_i = {i: coeff_qpow(0)}
        for name, left, right, qexp, _ in relations:
            lhs = apply_word_of_generators(spec, left, e_i, d=d)
            rhs = apply_word_of_generators(spec, right, e_i, d=d)
            rhs = {j: coeff_mul(c, coeff_qpow(qexp)) for j, c in rhs.items()}
            if not _vec_eq(lhs, rhs):
                failures.append((name, i))
        # x11 x22 - x22 x11 = (q - q^{-1}) x12 x21
        lhs = _vec_sub(
            apply_word_of_generators(spec, ("x11", "x22"), e_i, d=d),
            apply_word_of_generators(spec, ("x22", "x11"), e_i, d=d),
        )
        mid = apply_word_of_generators(spec, ("x12", "x21"), e_i, d=d)
        rhs = _vec_sub(
            {j: coeff_mul(c, coeff_qpow(d)) for j, c in mid.items()},
            {j: coeff_mul(c, coeff_qpow(-d)) for j, c in mid.items()},
        )
        if not _vec_eq(lhs, rhs):
            failures.append(("x11 x22 - x22 x11 = (q-1/q) x12 x21", i))
        # x11 x22 - q x12 x21 = 1
        lhs = _vec_sub(
            apply_word_of_generators(spec, ("x11", "x22"), e_i, d=d),
            {j: coeff_mul(c, coeff_qpow(d)) for j, c in mid.items()},
        )
        if not _vec_eq(lhs, e_i):
            failures.append(("x11 x22 - q x12 x21 = 1", i))
        if spec.kind == "Laurent":
            bad = spec.illegal_laurent_index(d=d, bound=N)
            if bad is not None and bad == i:
                failures.append(("laurent coefficient 1 + gamma eta q^{2i-1} vanishes", i))
    return {"ok": not failures, "failures": failures, "range": (lo, hi)}


def _vec_sub(v1, v2):
    out = dict(v1)
    for k, c in v2.items():
        merged = coeff_add(out.get(k, {}), coeff_neg(c))
        if merged:
            out[k] = merged
        elif k in out:
            del out[k]
    return out


def _vec_eq(v1, v2):
    return not _vec_sub(v1, v2)


# ---------------------------------------------------------------------------
# tensor modules on e_n, n in Z^m


def tensor_diagonal(datum, word):
    return tuple(datum.d[abs(e) - 1] for e in word)


class TensorModule:
    """The tensor module attached to a signed word, with per-factor
    parameters gamma_k (None keeps gamma_k formal as g{k+1})."""

    def __init__(self, datum, word, params=None):
        self.datum = datum
        self.word = tuple(word)
        weyl.split_double_word(datum, self.word)
        self.m = len(self.word)
        self.D = tensor_diagonal(datum, self.word)
        if params is None:
            params = [None] * self.m
        if len(params) != self.m:
            raise ValueError("need one parameter per tensor factor")
        self.params = list(params)

    def _gamma_power(self, b):
        """Coefficient of prod_k gamma_k^{b_k}."""
        g = [0] * self.m
        extra = coeff_qpow(0)
        for k, bk in enumerate(b):
            if bk == 0:
                continue
            if self.params[k] is None:
                g[k] = bk
            else:
                base = self.params[k]
                pw = coeff_qpow(0)
                c = base if bk > 0 else _coeff_inv_monomial(base)
                for _ in range(abs(bk)):
                    pw = coeff_mul(pw, c)
                extra = coeff_mul(extra, pw)
        if any(g):
            extra = coeff_mul(extra, {(0, tuple(g)): 1})
        return extra

    def monomial_action(self, mono, vec):
        """x^a y^b acting on {n: coeff}: y^b is diagonal, x^a shifts."""
        a, b = mono
        if len(a) != self.m or len(b) != self.m:
            raise ValueError("monomial length != factor count")
        gcoeff = self._gamma_power(b)
        D = self.D
        out = {}
        for n, c in vec.items():
            qexp = sum(bk * dk * nk for bk, dk, nk in zip(b, D, n))
            scal = coeff_mul(coeff_mul(c, gcoeff), coeff_qpow(qexp))
            key = tuple(nk - ak for nk, ak in zip(n, a))
            merged = coeff_add(out.get(key, {}), scal)
            if merged:
                out[key] = merged
            elif key in out:
                del out[key]
        return out

    def element_action(self, u, vec):
        """Linear extension over the terms of a torus element."""
        if u.m != self.m or u.D != self.D:
            raise ValueError("element lives in a different torus")
        out = {}
        for (a, b), c in u.terms.items():
            part = self.monomial_action((a, b), vec)
            for key, pc in part.items():
                merged = coeff_add(out.get(key, {}), coeff_mul(pc, c))
                if merged:
                    out[key] = merged
                elif key in out:
                    del out[key]
        return out

    def basis_vector(self, n):
        n = tuple(n)
        if len(n) != self.m:
            raise ValueError("index length != factor count")
        return {n: coeff_qpow(0)}


def verify_tensor_relations(datum, word, N, params=None, include_det=True):
    """Check the quantum-matrix relations through the module action on every
    basis vector with max |n_k| <= N; exact coefficient equality throughout."""
    import itertools

    from . import wiring

    mod = TensorModule(datum, word, params=params)
    n1 = datum.n + 1
    g = wiring.generator_images(datum, word)
    instances = []
    for i in range(1, n1 + 1):
        for j in range(1, n1 + 1):
            for l in range(j + 1, n1 + 1):
                instances.append((f"x{i}{j} x{i}{l} = q x{i}{l} x{i}{j}",
                                  [(g[(i, j)], g[(i, l)])], [(g[(i, l)], g[(i, j)])], 1))
            for k in range(i + 1, n1 + 1):
                instances.append((f"x{i}{j} x{k}{j} = q x{k}{j} x{i}{j}",
                                  [(g[(i, j)], g[(k, j)])], [(g[(k, j)], g[(i, j)])], 1))
    for i in range(1, n1 + 1):
        for k in range(i + 1, n1 + 1):
            for j in range(1, n1 + 1):
                for l in range(j + 1, n1 + 1):
                    instances.append((f"x{i}{l} x{k}{j} = x{k}{j} x{i}{l}",
                                      [(g[(i, l)], g[(k, j)])], [(g[(k, j)], g[(i, l)])], 0))

    failures = []
    ball = list(itertools.product(range(-N, N + 1), repeat=mod.m))
    for n in ball:
        base = mod.basis_vector(n)
        acted = {}

        def act2(u1, u2):
            key = (id(u1), id(u2))
            if key not in acted:
                acted[key] = mod.element_action(u1, mod.element_action(u2, base))
            return acted[key]

        for name, lhs_pairs, rhs_pairs, qexp in instances:
            lhs = {}
            for u1, u2 in lhs_pairs:
                lhs = _vec_merge(lhs, act2(u1, u2))
            rhs = {}
            for u1, u2 in rhs_pairs:
                rhs = _vec_merge(rhs, act2(u1, u2))
            if qexp:
                rhs = {key: coeff_mul(c, coeff_qpow(qexp)) for key, c in rhs.items()}
            if not _vec_eq(lhs, rhs):
                failures.append((name, n))
        # [x_ij, x_kl] = (q - q^{-1}) x_il x_kj for i<k, j<l
        for i in range(1, n1 + 1):
            for k in range(i + 1, n1 + 1):
                for j in range(1, n1 + 1):
                    for l in range(j + 1, n1 + 1):
                        lhs = _vec_sub(act2(g[(i, j)], g[(k, l)]),
                                       act2(g[(k, l)], g[(i, j)]))
                        mid = act2(g[(i, l)], g[(k, j)])
                        rhs = _vec_sub(
                            {key: coeff_mul(c, coeff_qpow(1)) for key, c in mid.items()},
                            {key: coeff_mul(c, coeff_qpow(-1)) for key, c in mid.items()},
                        )
                        if not _vec_eq(lhs, rhs):
                            failures.append((f"[x{i}{j}, x{k}{l}] commutator", n))
        if include_det:
            det = {}
            for tau in itertools.permutations(range(n1)):
                inv = weyl.inversion_count(tau)
                term = dict(base)
                for s in range(n1 - 1, -1, -1):
                    term = mod.element_action(g[(s + 1, tau[s] + 1)], term)
                term = {key: coeff_mul(c, {(inv, ()): (-1) ** inv}) for key, c in term.items()}
                det = _vec_merge(det, term)
            if not _vec_eq(det, base):
                failures.append(("det_q = 1", n))
    return {"ok": not failures, "failures": failures[:20], "checked": len(ball)}


def _vec_merge(v1, v2):
    out = dict(v1)
    for k, c in v2.items():
        merged = coeff_add(out.get(k, {}), c)
        if merged:
            out[k] = merged
        elif k in out:
            del out[k]
    return out


def weight_space_of(datum, word, n):
    """The diagonal-subtorus weight of the basis vector e_n: the unique m with
    OmegaTilde^T D n = Theta m."""
    word = tuple(word)
    n = tuple(n)
    mats = strings.string_matrices(datum, word)
    if len(n) != len(word):
        raise ValueError("index length != word length")
    m = len(word)
    rhs = [
        sum(mats.OmegaTilde[k][i] * mats.D[k] * n[k] for k in range(m))
        for i in range(datum.n)
    ]
    s = len(mats.Theta[0]) if mats.Theta and mats.Theta[0] else 0
    if s == 0:
        if any(rhs):
            raise RuntimeError("weight equation unsolvable with empty Theta")
        return ()
    from . import intlinalg

    sol = intlinalg.solve_rational(mats.Theta, rhs)
    if sol is None:
        raise RuntimeError("weight equation unsolvable; Theta basis is broken")
    out = []
    for v in sol:
        if v.denominator != 1:
            raise RuntimeError("weight solution is not integral; Theta basis is broken")
        out.append(int(v))
    return tuple(out)
