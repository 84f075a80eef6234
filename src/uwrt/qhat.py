"""Finite-depth arithmetic in the cyclotomic completion lim Z[q]/((q)_n).

An element of depth N is a list c_0, ..., c_{N-1} of Laurent polynomials
in q, standing for sum_n c_n (q)_n known modulo ((q)_N).  The
representation is not unique; equality always goes through canonical
reduction mod (q)_d.  The canonical representative of Z[q]/((q)_d) used
here is the polynomial with nonnegative exponents and degree less than
d(d+1)/2: the remainder of sum_n c_n (q)_n by (q)_d, taken in one pass by
laurent.remainder (a long division for the polynomial part, then one
exact division by q per negative power; (q)_d has leading coefficient
and constant term +-1, so both stay in Z).

The Taylor expansion at a primitive r-th root of unity x is taken in
Z[q]/(Phi_r^d), which the jets h^0 .. h^(d-1) of q = x + h determine:
Phi_r(x + h)^d vanishes modulo (Phi_r(x), h^d).  Phi_r^d divides (q)_n
for n >= r*d, so only the first r*d terms of an element matter, and one
remainder of their sum by Phi_r^d (monic, constant term +-1, so negative
powers of q cost nothing extra) is a polynomial of degree < d*phi(r)
whose binomial shift q^j = sum_k C(j, k) x^(j-k) h^k gives the jets.
"""

from __future__ import annotations

from math import comb

from .errors import DepthExceeded, InputError, NotInQ
from .laurent import (LaurentU, ZERO, ModPoly, cyclotomic, cyclotomic_coeffs,
                      pochhammer, q_pow, remainder)

DEFAULT_DEPTH = 10


class HabiroElem:
    __slots__ = ("depth", "terms")

    def __init__(self, depth, terms=()):
        if depth < 1:
            raise ValueError("depth must be positive")
        self.depth = depth
        out = [ZERO] * depth
        for n, c in (terms.items() if isinstance(terms, dict)
                     else enumerate(terms)):
            if n >= depth:
                continue
            if not c.is_in_q():
                raise NotInQ(f"term {n} involves fractional powers of q")
            out[n] = out[n] + c
        self.terms = tuple(out)

    @staticmethod
    def from_polynomial(p, depth=DEFAULT_DEPTH):
        if isinstance(p, int):
            p = LaurentU.integer(p)
        if not p.is_in_q():
            raise NotInQ(p.to_str())
        return HabiroElem(depth, {0: p})

    @staticmethod
    def zero(depth=DEFAULT_DEPTH):
        return HabiroElem(depth)

    def __add__(self, other):
        other = _as_elem(other, self.depth)
        d = min(self.depth, other.depth)
        return HabiroElem(d, [self.terms[n] + other.terms[n]
                              for n in range(d)])

    __radd__ = __add__

    def __neg__(self):
        return HabiroElem(self.depth, [-c for c in self.terms])

    def __sub__(self, other):
        return self + (-_as_elem(other, self.depth))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LaurentU):
            if not other.is_in_q():
                raise NotInQ(other.to_str())
            return HabiroElem(self.depth,
                              [c * other for c in self.terms])
        if isinstance(other, int):
            return HabiroElem(self.depth,
                              [c * other for c in self.terms])
        d = min(self.depth, other.depth)
        out = [ZERO] * d
        for m in range(d):
            cm = self.terms[m]
            if cm.is_zero():
                continue
            for n in range(d):
                dn = other.terms[n]
                if dn.is_zero():
                    continue
                k = max(m, n)
                if k < d:
                    out[k] = out[k] + cm * dn * pochhammer(min(m, n))
        return HabiroElem(d, out)

    __rmul__ = __mul__

    def conj(self):
        """The bar involution q -> q^(-1), using
        conj((q)_n) = (-1)^n q^(-n(n+1)/2) (q)_n."""
        out = []
        for n, c in enumerate(self.terms):
            c = c.conj() * q_pow(-n * (n + 1) // 2)
            if n % 2:
                c = -c
            out.append(c)
        return HabiroElem(self.depth, out)

    def expand(self, d):
        """The q-run (lo, run) of sum_{n<d} c_n (q)_n, the polynomial
        q^lo * sum_i run[i] q^i, by Horner: P <- c_n + (1 - q^(n+1)) P."""
        lo, run = 0, []
        for n in range(d - 1, -1, -1):
            if run:
                pad = [0] * (n + 1)
                run = [a - b for a, b in zip(run + pad, pad + run)]
            c = self.terms[n]
            if c.coeffs:
                clo = c.min // 4
                if clo < lo:
                    run = [0] * (lo - clo) + run
                    lo = clo
                at = clo - lo
                crun = c.coeffs[::4]
                run += [0] * (at + len(crun) - len(run))
                for i, a in enumerate(crun, at):
                    run[i] += a
        return lo, run

    def __repr__(self):
        bits = [f"({c.to_str()})*(q)_{n}" for n, c in enumerate(self.terms)
                if not c.is_zero()]
        body = " + ".join(bits) if bits else "0"
        return f"HabiroElem[depth {self.depth}]({body})"

    def to_json(self):
        return {"depth": self.depth,
                "terms": [c.to_json() for c in self.terms]}

    @staticmethod
    def from_json(obj):
        return HabiroElem(obj["depth"],
                          [LaurentU.from_json(t) for t in obj["terms"]])


def _as_elem(x, depth):
    if isinstance(x, HabiroElem):
        return x
    if isinstance(x, (int, LaurentU)):
        return HabiroElem.from_polynomial(x, depth)
    raise TypeError(f"cannot coerce {type(x).__name__}")


# -- canonical reduction -----------------------------------------------------


def reduce(x, d):
    """Canonical representative of x in Z[q]/((q)_d)."""
    if d > x.depth:
        raise DepthExceeded(f"requested depth {d} > element depth {x.depth}")
    rem = remainder(*x.expand(d), pochhammer(d).coeffs[::4])
    return LaurentU.from_q_coeffs(0, rem)


def equals_at_depth(x, y, d):
    return reduce(x, d) == reduce(_as_elem(y, x.depth), d)


# -- evaluation at roots of unity --------------------------------------------


def eval_root(x, r):
    """s_zeta at a primitive r-th root of unity, as an element of
    Z[q]/(Phi_r); returns a plain integer when r = 1."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if x.depth < r:
        raise DepthExceeded(f"depth {x.depth} < r = {r}")
    f = cyclotomic_coeffs(r)
    val = ModPoly(f, remainder(*x.expand(r), f))
    return val.as_integer() if r == 1 else val


# -- Taylor expansion at roots of unity ---------------------------------------


def taylor(x, r, d):
    """The first d Taylor coefficients of x at a primitive r-th root of
    unity, each an element of Z[x]/(Phi_r).

    Jet k is the coefficient of h^k in the expansion at q = x + h.  The
    expansion is exact on the r*d terms read: Phi_r^d divides (q)_n for
    n >= r*d.  One remainder modulo Phi_r^d, the monic generator of that
    ideal, gives rem with P = sum_j rem_j q^j mod Phi_r^d, and jet k is
    sum_j C(j, k) rem_j x^(j-k) mod Phi_r.
    """
    if d < 1:
        raise InputError(f"coefficient count must be >= 1, got {d}")
    if x.depth < r * d:
        raise DepthExceeded(f"depth {x.depth} < r*d = {r * d}")
    rem = remainder(*x.expand(r * d), (cyclotomic(r) ** d).coeffs[::4])
    mod = cyclotomic_coeffs(r)
    return [ModPoly(mod, [comb(j, k) * rem[j] for j in range(k, len(rem))])
            for k in range(d)]


def phi_order(x, n, kmax):
    """Largest k <= kmax with Phi_n^k dividing x (at available depth)."""
    coeffs = taylor(x, n, kmax)
    order = 0
    for c in coeffs:
        if c.is_zero():
            order += 1
        else:
            break
    return order
