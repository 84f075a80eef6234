"""Exact Laurent-polynomial arithmetic in u = q^(1/4) over Z, and
quotient rings Z[x]/(f) and F_p[x]/(f).

Everything downstream is expressed in the single variable u; v = u^2 and
q = u^4 are notational subrings.  Coefficients are Python ints, so they
are arbitrary precision by construction.  All values are immutable.
Every quotient is by a modulus with unit leading coefficient, so
remainders are taken over Z and reduced mod p afterwards; no fraction
is ever formed.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

from .errors import (NonExactDivision, NonInvertibleVariable, NotAUnit, NotInQ,
                     ShapeMismatch)


class LaurentU:
    """Laurent polynomial in u, stored as (min exponent, coefficient run).

    Canonical form: the first and last stored coefficients are nonzero;
    the zero polynomial is the empty run with min exponent 0.
    """

    __slots__ = ("min", "coeffs")
    # __getitem__ reads 0 past the run, so the sequence protocol would
    # iterate forever (say, a LaurentU passed where coefficients belong)
    __iter__ = None

    def __init__(self, min_exponent=0, coeffs=()):
        coeffs = list(coeffs)
        lo = 0
        hi = len(coeffs)
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        if lo == hi:
            self.min = 0
            self.coeffs = ()
        else:
            self.min = min_exponent + lo
            self.coeffs = tuple(coeffs[lo:hi])

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def monomial(exponent, coefficient=1):
        return LaurentU(exponent, (coefficient,))

    @staticmethod
    def integer(n):
        return LaurentU(0, (n,))

    @staticmethod
    def from_q_coeffs(min_q_exponent, coeffs):
        """Polynomial in q with the given q-coefficient run."""
        out = [0] * (4 * len(coeffs))
        for i, c in enumerate(coeffs):
            out[4 * i] = c
        return LaurentU(4 * min_q_exponent, out)

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    @property
    def max(self):
        return self.min + len(self.coeffs) - 1

    def __getitem__(self, exponent):
        i = exponent - self.min
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def is_in_q(self):
        return all(c == 0 or (self.min + i) % 4 == 0
                   for i, c in enumerate(self.coeffs))

    def is_in_v(self):
        return all(c == 0 or (self.min + i) % 2 == 0
                   for i, c in enumerate(self.coeffs))

    def q_coeff(self, k):
        """Coefficient of q^k."""
        return self[4 * k]

    def is_monomial(self):
        return len(self.coeffs) == 1

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentU.integer(other)
        if not isinstance(other, LaurentU):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.min, other.min)
        hi = max(self.max, other.max)
        out = [0] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.min - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.min - lo + i] += c
        return LaurentU(lo, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentU(self.min, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentU.integer(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            return LaurentU(self.min, tuple(other * c for c in self.coeffs))
        if not isinstance(other, LaurentU):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return _ZERO
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        a = [(i, ca) for i, ca in enumerate(a) if ca]
        for j, cb in enumerate(b):
            if cb:
                for i, ca in a:
                    out[i + j] += ca * cb
        return LaurentU(self.min + other.min, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            if not self.is_monomial() or abs(self.coeffs[0]) != 1:
                raise NonExactDivision("negative power of a non-unit")
            c = self.coeffs[0] if n % 2 else 1
            return LaurentU.monomial(self.min * n, c)
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self):
        """The bar involution u -> u^(-1) (hence q -> q^(-1))."""
        return LaurentU(-self.max, tuple(reversed(self.coeffs)))

    def exact_div(self, other):
        """Exact quotient self / other in Z[u, u^-1].

        Raises NonExactDivision when the quotient does not exist; this is
        a hard error everywhere it is used as an integrality assertion.
        """
        if not isinstance(other, LaurentU):
            other = LaurentU.integer(other)
        if other.is_zero():
            raise NonExactDivision("division by zero")
        if self.is_zero():
            return _ZERO
        rem = list(self.coeffs)
        div = other.coeffs
        dlead = div[-1]
        n = len(rem) - len(div)
        if n < 0:
            raise NonExactDivision("degree too small")
        # q-valued divisors have three zero u-coefficients in every four
        nonzero = [(i, d) for i, d in enumerate(div) if d]
        quot = [0] * (n + 1)
        for k in range(n, -1, -1):
            c = rem[k + len(div) - 1]
            if c % dlead:
                raise NonExactDivision("leading coefficient does not divide")
            f = c // dlead
            quot[k] = f
            if f:
                for i, d in nonzero:
                    rem[k + i] -= f * d
        if any(rem):
            raise NonExactDivision("nonzero remainder")
        return LaurentU(self.min - other.min, quot)

    @staticmethod
    def from_dict(d):
        if not d:
            return _ZERO
        lo = min(d)
        hi = max(d)
        out = [0] * (hi - lo + 1)
        for e, c in d.items():
            out[e - lo] = c
        return LaurentU(lo, out)

    # -- comparisons / hashing -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentU.integer(other)
        if not isinstance(other, LaurentU):
            return NotImplemented
        return self.min == other.min and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.min, self.coeffs))

    # -- rendering ------------------------------------------------------

    def __repr__(self):
        return f"LaurentU({self.to_str()!r})"

    def to_str(self):
        if self.is_zero():
            return "0"
        if self.is_in_q():
            var, step = "q", 4
        elif self.is_in_v():
            var, step = "v", 2
        else:
            var, step = "u", 1
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            e = (self.min + i) // step
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                pw = var if e == 1 else f"{var}^{e}"
                term = mag + pw
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append((" - " if c < 0 else " + ") + term)
        return "".join(parts)

    def to_json(self):
        return {"var": "u", "min": self.min, "coeffs": list(self.coeffs)}

    @staticmethod
    def from_json(obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        if obj.get("var", "u") != "u":
            raise NotInQ("unknown variable tag")
        return LaurentU(obj["min"], obj["coeffs"])


_ZERO = LaurentU(0, ())
_ONE = LaurentU(0, (1,))


def u_pow(k, coefficient=1):
    return LaurentU.monomial(k, coefficient)


def v_pow(k, coefficient=1):
    return LaurentU.monomial(2 * k, coefficient)


def q_pow(k, coefficient=1):
    return LaurentU.monomial(4 * k, coefficient)


ONE = _ONE
ZERO = _ZERO


# -- cyclotomic polynomials ----------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic(n):
    """n-th cyclotomic polynomial in q, by the divisor recursion."""
    if n < 1:
        raise ValueError("n must be >= 1")
    acc = q_pow(n) - 1
    for d in range(1, n):
        if n % d == 0:
            acc = acc.exact_div(cyclotomic(d))
    return acc


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n):
    """q-coefficients of the n-th cyclotomic polynomial, constant term
    first."""
    phi = cyclotomic(n)
    return tuple(phi.q_coeff(k) for k in range(phi.max // 4 + 1))


# -- q-combinatorics ------------------------------------------------------
#
# One family, built on the q-integers {i}_q = q^i - 1.  The balanced
# integers {i} = v^i - v^(-i) = v^(-i) {i}_q differ from them by a
# v-monomial, so each balanced product is the q-product times one power
# of v, and [i] = {i}/{1} = v^(1-i)(1 + q + ... + q^(i-1)).  Only the
# falling product is multiplied out (once per argument pair, cached);
# binomials are exact divisions, and a failure there is an internal
# fault, not a caller error.


@lru_cache(maxsize=None)
def falling_q(i, n):
    """{i}_{q,n} = {i}_q {i-1}_q ... {i-n+1}_q."""
    acc = _ONE
    for k in range(n):
        acc = acc * (q_pow(i - k) - 1)
    return acc


def qint_bal(i):
    """{i} = v^i - v^(-i)."""
    return v_pow(i) - v_pow(-i)


def falling_bal(i, n):
    """{i}_n = {i}{i-1}...{i-n+1} = v^(n(n-1)/2 - ni) {i}_{q,n}."""
    return v_pow(n * (n - 1) // 2 - n * i) * falling_q(i, n)


def qfact_q(n):
    """{n}_q! = {n}_q {n-1}_q ... {1}_q."""
    return falling_q(n, n)


def qfact_bal(n):
    """{n}! = {n}{n-1}...{1} = v^(-n(n+1)/2) {n}_q!."""
    return v_pow(-n * (n + 1) // 2) * qfact_q(n)


def pochhammer(n):
    """(q)_n = (1-q)(1-q^2)...(1-q^n) = (-1)^n {n}_q!."""
    return qfact_q(n) * (-1) ** n


def qbinom_q(i, n):
    return falling_q(i, n).exact_div(qfact_q(n))


def qbinom_bal(i, n):
    """{i}_n / {n}! = v^(n(n-i)) qbinom_q(i, n)."""
    return v_pow(n * (n - i)) * qbinom_q(i, n)


def qnum(i):
    """Balanced quantum integer [i] = {i}/{1}; [-i] = -[i]."""
    if i < 0:
        return -qnum(-i)
    return LaurentU(2 * (1 - i), (1, 0, 0, 0) * i)


def qmultinom_q(n, parts):
    """[n]_q! / prod [p]_q! = {n}_q! / prod {p}_q! over the given
    composition of n."""
    assert sum(parts) == n
    return qfact_q(n).exact_div(math.prod(map(qfact_q, parts), start=_ONE))


# -- quotient rings over Z and F_p ---------------------------------------


class ModPoly:
    """Element of Z[x]/(f) (p = 0) or F_p[x]/(f) (p > 0).

    The modulus f is a coefficient tuple, constant term first.  Over Z
    its leading coefficient must be +-1 (else NotAUnit); over F_p it is
    reduced mod p and scaled to be monic, which leaves the ideal
    unchanged.  Representatives are reduced to degree < deg f, and mod p
    when p > 0; callers check that p is prime (evaluate.is_prime).
    """

    __slots__ = ("modulus", "coeffs", "p")

    def __init__(self, modulus, coeffs, p=0):
        modulus = tuple(modulus)
        if len(modulus) < 2:
            raise ValueError("modulus must have degree >= 1")
        if p:
            inv = pow(modulus[-1], -1, p)     # ValueError if not a unit
            modulus = tuple(c * inv % p for c in modulus)
        self.modulus = modulus
        self.p = p
        self.coeffs = self._reduced(coeffs)

    def _reduced(self, coeffs):
        rem = remainder(0, coeffs, self.modulus)
        return tuple(c % self.p for c in rem) if self.p else tuple(rem)

    def _like(self, coeffs):
        """Result with this modulus and p; the modulus is not checked
        again."""
        out = object.__new__(ModPoly)
        out.modulus = self.modulus
        out.p = self.p
        out.coeffs = self._reduced(coeffs)
        return out

    def _check(self, other):
        if isinstance(other, int):
            return self._like([other])
        if (not isinstance(other, ModPoly) or other.p != self.p
                or other.modulus != self.modulus):
            raise ShapeMismatch("incompatible ModPoly operands")
        return other

    def __add__(self, other):
        other = self._check(other)
        return self._like([a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return self._like([-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self._like([a * other for a in self.coeffs])
        b = self._check(other).coeffs
        out = [0] * (2 * len(self.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, c in enumerate(b):
                    out[i + j] += a * c
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("ModPoly powers must be >= 0")
        result = self._like([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._like([other])
        if not isinstance(other, ModPoly):
            return NotImplemented
        return (self.p, self.modulus, self.coeffs) == \
            (other.p, other.modulus, other.coeffs)

    def __hash__(self):
        return hash((self.p, self.modulus, self.coeffs))

    def as_integer(self):
        """Value for a degree-1 modulus x - a: the residue f(a)."""
        if len(self.modulus) != 2:
            raise ShapeMismatch("modulus is not linear")
        return self.coeffs[0]

    def _base(self):
        return f"Fp({self.p})" if self.p else "Z"

    def to_json(self):
        return {"base": self._base(),
                "modulus": [str(c) for c in self.modulus],
                "coeffs": [str(c) for c in self.coeffs]}

    def __repr__(self):
        return (f"ModPoly({self._base()}, deg {len(self.modulus) - 1} "
                f"modulus, {list(self.coeffs)})")


def is_unit(a, f, p):
    """Whether sum_i a[i] x^i is a unit of F_p[x]/(f), f of degree >= 1
    mod p: Euclid's algorithm over F_p ends in a nonzero constant."""

    def stripped(c):
        c = [x % p for x in c]
        while c and not c[-1]:
            c.pop()
        return c

    g, h = stripped(f), stripped(a)
    while h:
        inv = pow(h[-1], -1, p)
        while len(g) >= len(h):
            c = g[-1] * inv
            shift = len(g) - len(h)
            for i, y in enumerate(h):
                g[shift + i] = (g[shift + i] - c * y) % p
            while g and not g[-1]:
                g.pop()
        g, h = h, g
    return len(g) == 1


def remainder(lo, run, f):
    """Remainder over Z of x^lo * sum_i run[i] x^i modulo f.

    f is a coefficient sequence, constant term first, with leading
    coefficient +-1 (else NotAUnit), so one long division over Z gives
    the remainder of the polynomial part.  A negative lo then takes
    |lo| exact divisions by x, r <- (r - r(0) f(0) f) / x, each O(deg f);
    they need f(0) = +-1 (else NonInvertibleVariable).  Returns the
    deg f coefficients of the remainder, constant term first.
    """
    f = tuple(f)
    deg = len(f) - 1
    lead = f[-1] if f else 0
    if lead not in (1, -1):
        raise NotAUnit(f"modulus leading coefficient {lead} is not +-1")
    nonzero = [(i, c) for i, c in enumerate(f) if c]
    r = [0] * max(lo, 0) + list(run)
    for k in range(len(r) - 1, deg - 1, -1):
        c = r[k] * lead
        if c:
            for i, fi in nonzero:
                r[k - deg + i] -= c * fi
    del r[deg:]
    r += [0] * (deg - len(r))
    if lo < 0:
        if f[0] not in (1, -1):
            raise NonInvertibleVariable("modulus constant term not +-1")
        for _ in range(-lo):
            r.append(0)
            c = r[0] * f[0]
            if c:
                for i, fi in nonzero:
                    r[i] -= c * fi
            del r[0]
    return r


def reduce_mod(a, f, p=0, var="q"):
    """Reduce a LaurentU modulo a polynomial f in q (var "q") or in u
    (var "u"), over Z (p = 0) or F_p.

    f is the coefficient sequence of the modulus, constant term first
    (cyclotomic_coeffs gives it for Phi_n).  The remainder is taken over
    Z in one pass (remainder), so f must have leading coefficient +-1,
    and also f(0) = +-1 when a has negative exponents; cyclotomic moduli
    have both.  Z -> F_p is a ring map, so reducing that remainder mod p
    gives the reduction over F_p.
    """
    step = {"q": 4, "u": 1}[var]
    start = -a.min % step
    for i, c in enumerate(a.coeffs):
        if c and (i - start) % step:
            raise NotInQ(f"exponent {a.min + i} not a multiple of {step}")
    rem = remainder((a.min + start) // step, a.coeffs[start::step], f)
    return ModPoly(f, rem, p)
