"""The representation ring of quantized sl2 and its useful bases.

Supported basis families, indexed by n >= 0:

    V_n       irreducibles
    P_n       prod_{i=0}^{n-1} (V_1 - v^(2i+1) - v^(-2i-1))
    P'_n      P_n / {n}!
    P''_n     P_n / {2n+1}_{2n}
    t~P'_n    v^(-n(n-1)/2) P'_n
    S_n       prod_{i=1}^{n} (V_1^2 - (v^i + v^(-i))^2)

plus the twist element omega (through its P'-basis coefficients).
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import (LaurentFrac, LaurentU, ONE, falling_bal, q_pow,
                      qbinom_bal, qfact_bal, qmultinom_q, qnum, v_pow)

BASES = ("V", "P", "P'", "P''", "t~P'", "S")


class BasisCombo:
    """Finitely supported formal combination of basis elements of one
    family, with LaurentFrac coefficients."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms=()):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for n, c in items:
            if not isinstance(c, LaurentFrac):
                c = LaurentFrac(c)
            if not c.is_zero():
                clean[n] = clean.get(n, LaurentFrac.zero()) + c
        self.terms = {n: c for n, c in sorted(clean.items())
                      if not c.is_zero()}

    @staticmethod
    def unit(basis, n, coefficient=1):
        return BasisCombo(basis, {n: LaurentFrac(coefficient)})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if self.basis != other.basis:
            raise ValueError("mixed bases; convert first")
        out = dict(self.terms)
        for n, c in other.terms.items():
            out[n] = out.get(n, LaurentFrac.zero()) + c
        return BasisCombo(self.basis, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if not isinstance(c, LaurentFrac):
            c = LaurentFrac(c)
        return BasisCombo(self.basis,
                          {n: x * c for n, x in self.terms.items()})

    def truncate(self, N):
        """Drop terms of index >= N."""
        return BasisCombo(self.basis,
                          {n: c for n, c in self.terms.items() if n < N})

    def __eq__(self, other):
        return (isinstance(other, BasisCombo) and self.basis == other.basis
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "BasisCombo(0)"
        bits = [f"({c!r})*{self.basis}_{n}" for n, c in self.terms.items()]
        return "BasisCombo(" + " + ".join(bits) + ")"

    def to_json(self):
        return {"basis": self.basis,
                "terms": {str(n): (c.num.to_str() if c.den == ONE
                                   else f"{c.num.to_str()} / {c.den.to_str()}")
                          for n, c in self.terms.items()}}


# -- base change -----------------------------------------------------------


@lru_cache(maxsize=None)
def _p_in_v(n):
    """V-basis coefficients of P_n; each is an exact Laurent polynomial."""
    coeffs = {}
    for i in range(n + 1):
        num = qnum(2 * i + 2) * qbinom_bal(2 * n + 1, n + 1 + i)
        c = num.exact_div(qnum(n + i + 2))
        if (n - i) % 2:
            c = -c
        if not c.is_zero():
            coeffs[i] = c
    return coeffs


@lru_cache(maxsize=None)
def _v_in_p(n):
    """P-basis coefficients of V_n."""
    return {i: qbinom_bal(n + i + 1, 2 * i + 1) for i in range(n + 1)}


def _v_mul_unit(m, n):
    """Clebsch-Gordan: V_m V_n = V_|m-n| + V_{|m-n|+2} + ... + V_{m+n}."""
    return list(range(abs(m - n), m + n + 1, 2))


def v_mul(x, y):
    """Product of two V-basis combos."""
    out = {}
    for m, a in x.terms.items():
        for n, b in y.terms.items():
            c = a * b
            for l in _v_mul_unit(m, n):
                out[l] = out.get(l, LaurentFrac.zero()) + c
    return BasisCombo("V", out)


@lru_cache(maxsize=None)
def _s_in_v(n):
    acc = BasisCombo.unit("V", 0)
    for i in range(1, n + 1):
        sq = v_pow(i) + v_pow(-i)
        factor = v_mul(BasisCombo.unit("V", 1), BasisCombo.unit("V", 1))
        factor = factor + BasisCombo("V", {0: LaurentFrac(-(sq * sq))})
        acc = v_mul(acc, factor)
    return acc.terms


def to_V(x):
    """Expand a combo in the V-basis."""
    if x.basis == "V":
        return x
    out = BasisCombo("V")
    for n, c in x.terms.items():
        if x.basis == "S":
            unit = BasisCombo("V", _s_in_v(n))
        else:
            unit = BasisCombo("V", _p_in_v(n))
            if x.basis == "P'":
                unit = unit.scale(LaurentFrac(ONE, qfact_bal(n)))
            elif x.basis == "P''":
                unit = unit.scale(LaurentFrac(ONE, falling_bal(2 * n + 1,
                                                               2 * n)))
            elif x.basis == "t~P'":
                num = v_pow(-n * (n - 1) // 2)
                unit = unit.scale(LaurentFrac(num, qfact_bal(n)))
        out = out + unit.scale(c)
    return out


def to_P(x):
    """Expand a combo in the P-basis."""
    if x.basis == "P":
        return x
    if x.basis == "P'":
        return BasisCombo("P", {n: c * LaurentFrac(ONE, qfact_bal(n))
                                for n, c in x.terms.items()})
    x = to_V(x)
    out = BasisCombo("P")
    for n, c in x.terms.items():
        out = out + BasisCombo("P", _v_in_p(n)).scale(c)
    return out


# -- Hopf pairing ----------------------------------------------------------


def _pair_vv(m, n):
    return LaurentFrac(qnum((m + 1) * (n + 1)))


def _pair_units(bx, m, by, n):
    """Pairing of single basis elements, with closed-form fast paths."""
    if bx == "V" and by == "V":
        return _pair_vv(m, n)
    if bx == "P" and by == "V" and n % 2 == 0:
        return LaurentFrac(qnum(n + 1) * falling_bal(n // 2 + m, 2 * m))
    if bx == "V" and by == "S":
        return LaurentFrac(falling_bal(m + n + 1, 2 * n + 1),
                           qnum(1) * (v_pow(1) - v_pow(-1)))
    if bx == "P" and by == "S":
        if m != n:
            return LaurentFrac.zero()
        return LaurentFrac(falling_bal(2 * m + 1, 2 * m))
    return None


def pairing(x, y):
    """The Hopf-link pairing, bilinear over LaurentFrac."""
    acc = LaurentFrac.zero()
    for m, a in x.terms.items():
        for n, b in y.terms.items():
            fast = _pair_units(x.basis, m, y.basis, n)
            if fast is None:
                fast = _pair_units(y.basis, n, x.basis, m)
            if fast is None:
                vx = to_V(BasisCombo.unit(x.basis, m))
                vy = to_V(BasisCombo.unit(y.basis, n))
                fast = LaurentFrac.zero()
                for mm, aa in vx.terms.items():
                    for nn, bb in vy.terms.items():
                        fast = fast + aa * bb * _pair_vv(mm, nn)
            acc = acc + a * b * fast
    return acc


# -- the twist element and its powers ---------------------------------------


@lru_cache(maxsize=None)
def _compositions(n, parts):
    """All tuples of `parts` nonnegative integers summing to n, in
    lexicographic order."""
    if parts == 0:
        return ((),) if n == 0 else ()
    if parts == 1:
        return ((n,),)
    out = []
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def omega_coeff(p, n):
    """Coefficient of P'_n in omega^p."""
    if p == 0:
        return ONE if n == 0 else LaurentU.zero()
    k = abs(p)
    acc = LaurentU.zero()
    for comp in _compositions(n, k):
        mult = qmultinom_q(n, comp)
        s = 0
        f = 0
        for part in comp[:-1]:
            s += part
            f += s * s + s
        if p > 0:
            acc = acc + mult * q_pow(f)
        else:
            cross = sum(comp[j] * comp[l]
                        for j in range(k) for l in range(j + 1, k))
            acc = acc + mult * q_pow(-f - cross)
    if p > 0:
        return v_pow(n * (n + 3) // 2) * acc
    sign = -1 if n % 2 else 1
    return sign * v_pow(-n * (n + 3) // 2) * acc


def omega_truncated(p, N):
    """omega^p in the P'-basis, keeping indices < N."""
    return BasisCombo("P'", {n: LaurentFrac(omega_coeff(p, n))
                             for n in range(N)})


@lru_cache(maxsize=None)
def pprime_mul_unit(m, n):
    """P'_m P'_n in the P'-basis, with exact Laurent coefficients."""
    out = {}
    for i in range(min(m, n) + 1):
        c = qfact_bal(m + n)
        c = c.exact_div(qfact_bal(i))
        c = c.exact_div(qfact_bal(m - i))
        c = c.exact_div(qfact_bal(n - i))
        out[m + n - i] = LaurentFrac(c)
    return BasisCombo("P'", out)


def pprime_mul(x, y):
    """Product of two P'-basis combos."""
    out = BasisCombo("P'")
    for m, a in x.terms.items():
        for n, b in y.terms.items():
            out = out + pprime_mul_unit(m, n).scale(a * b)
    return out
