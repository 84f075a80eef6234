"""Finite-depth arithmetic in the cyclotomic completion lim Z[q]/((q)_n).

An element of depth N is a list c_0, ..., c_{N-1} of Laurent polynomials
in q, standing for sum_n c_n (q)_n known modulo ((q)_N).  The
representation is not unique; equality always goes through canonical
reduction mod (q)_d.  The canonical representative of Z[q]/((q)_d) used
here is the polynomial with nonnegative exponents and degree less than
d(d+1)/2: sum_n c_n (q)_n itself when it is one, else its remainder by
(q)_d, taken in one pass by laurent.remainder (a long division for the
polynomial part, then one exact division by q per negative power; (q)_d
has leading coefficient and constant term +-1, so both stay in Z).

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

from .errors import DepthExceeded, NotInQ, require_positive
from .laurent import (LaurentU, ZERO, ModPoly, RingElem, cyclotomic, fold,
                      pochhammer, remainder)

DEFAULT_DEPTH = 10


class HabiroElem(RingElem):
    __slots__ = ("depth", "terms")

    def __init__(self, depth, terms=()):
        self.depth = require_positive("depth", depth)
        out = [ZERO] * depth
        for n, c in (terms.items() if isinstance(terms, dict)
                     else enumerate(terms)):
            if n >= depth:
                continue
            out[n] = out[n] + c           # an int becomes a LaurentU
            if not out[n].is_in_q():
                raise NotInQ(f"term {n} involves fractional powers of q")
        self.terms = tuple(out)

    @staticmethod
    def from_polynomial(p, depth=DEFAULT_DEPTH):
        return HabiroElem(depth, {0: p})

    def __add__(self, other):
        other = _as_elem(other, self.depth)
        d = min(self.depth, other.depth)
        return HabiroElem(d, [self.terms[n] + other.terms[n]
                              for n in range(d)])

    __radd__ = __add__

    def __neg__(self):
        return HabiroElem(self.depth, [-c for c in self.terms])

    def __mul__(self, other):
        # the constructor refuses a nonzero term outside Z[q], not a zero one
        if (isinstance(other, LaurentU) and not other.is_in_q()
                and all(c.is_zero() for c in self.terms)):
            raise NotInQ(other.to_str())
        if isinstance(other, (int, LaurentU)):
            return HabiroElem(self.depth, [c * other for c in self.terms])
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

    def expand(self, d, period=None):
        """The q-run (lo, run) of sum_{n<d} c_n (q)_n, q^lo * sum_i run[i]
        q^i, by Horner: P <- c_n + (1 - q^(n+1)) P; with a period, lo = 0
        and run mod q^period - 1 (fold), exact mod Phi_r for r | period."""
        lo, run = 0, [0] * (period or 0)
        for n in range(d - 1, -1, -1):
            clo, crun = self.terms[n].q_run()
            if period:
                s = (n + 1) % period
                run = [a - b + c for a, b, c in zip(
                    run, run[-s:] + run[:-s], fold(clo // 4, crun, period))]
            elif run:
                pad = [0] * (n + 1)
                run = [a - b for a, b in zip(run + pad, pad + run)]
            if crun and not period:
                clo //= 4
                if clo < lo:
                    run = [0] * (lo - clo) + run
                    lo = clo
                at = clo - lo
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
    lo, run = x.expand(d)
    if lo < 0 or lo + len(run) > d * (d + 1) // 2:
        lo, run = 0, remainder(lo, run, pochhammer(d).q_run()[1])
    return LaurentU.from_q_coeffs(lo, run)


def equals_at_depth(x, y, d):
    return reduce(x, d) == reduce(_as_elem(y, x.depth), d)


# -- evaluation at roots of unity --------------------------------------------


def eval_root(x, r):
    """s_zeta at a primitive r-th root of unity in Z[q]/(Phi_r), through
    Z[q]/(q^r - 1), where (q)_n = 0 for n >= r; an integer when r = 1."""
    require_positive("r", r)
    if x.depth < r:
        raise DepthExceeded(f"depth {x.depth} < r = {r}")
    val = ModPoly(r, x.expand(r, r)[1])
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
    require_positive("r", r)
    require_positive("coefficient count", d)
    if x.depth < r * d:
        raise DepthExceeded(f"depth {x.depth} < r*d = {r * d}")
    rem = remainder(*x.expand(r * d), (cyclotomic(r) ** d).q_run()[1])
    return [ModPoly(r, [comb(j, k) * rem[j] for j in range(k, len(rem))])
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
