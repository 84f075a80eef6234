"""Exact Laurent-polynomial arithmetic in u = q^(1/4) over Z.

Everything downstream is expressed in the single variable u; v = u^2 and
q = u^4 are notational subrings.  Coefficients are Python ints, so they
are arbitrary precision by construction.  All values are immutable.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
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

    def shift(self, k):
        """Multiply by u^k."""
        if self.is_zero():
            return self
        return LaurentU(self.min + k, self.coeffs)

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
# Two systems: the q-version {i}_q = q^i - 1 and the balanced version
# {i} = v^i - v^{-i}.  Falling products, factorials and binomials follow
# the same split; binomials are produced by exact division and a failure
# there is an internal fault, not a caller error.


def qint_q(i):
    """{i}_q = q^i - 1."""
    return q_pow(i) - 1


def qint_bal(i):
    """{i} = v^i - v^{-i}."""
    if i == 0:
        return _ZERO
    return v_pow(i) - v_pow(-i)


def falling_q(i, n):
    """{i}_{q,n} = {i}_q {i-1}_q ... {i-n+1}_q."""
    acc = _ONE
    for k in range(n):
        acc = acc * qint_q(i - k)
    return acc


def falling_bal(i, n):
    """{i}_n = {i}{i-1}...{i-n+1}."""
    acc = _ONE
    for k in range(n):
        acc = acc * qint_bal(i - k)
    return acc


def qfact_q(n):
    """{n}_q! = {n}_q {n-1}_q ... {1}_q."""
    return falling_q(n, n)


@lru_cache(maxsize=None)
def qfact_bal(n):
    """{n}! = {n}{n-1}...{1}."""
    return falling_bal(n, n)


def qbinom_q(i, n):
    return falling_q(i, n).exact_div(qfact_q(n))


def qbinom_bal(i, n):
    return falling_bal(i, n).exact_div(qfact_bal(n))


def pochhammer(n):
    """(q)_n = (1-q)(1-q^2)...(1-q^n)."""
    acc = _ONE
    for k in range(1, n + 1):
        acc = acc * (1 - q_pow(k))
    return acc


def qnum(i):
    """Balanced quantum integer [i] = {i}/{1}."""
    if i == 0:
        return _ZERO
    return qint_bal(i).exact_div(qint_bal(1))


def qnum_q(i):
    """[i]_q = {i}_q/{1}_q."""
    if i == 0:
        return _ZERO
    return qint_q(i).exact_div(qint_q(1))


@lru_cache(maxsize=None)
def qnum_fact_q(n):
    """[n]_q!."""
    acc = _ONE
    for k in range(1, n + 1):
        acc = acc * qnum_q(k)
    return acc


def qmultinom_q(n, parts):
    """[n]_q! / prod [p]_q! over the given composition of n."""
    assert sum(parts) == n
    acc = qnum_fact_q(n)
    for p in parts:
        acc = acc.exact_div(qnum_fact_q(p))
    return acc


# -- quotient-ring elements -----------------------------------------------


class BaseRing:
    """Coefficient domain tag for ModPoly: Z, F_p or Q."""

    def __init__(self, kind, modulus=None):
        if kind not in ("Z", "Fp", "Q"):
            raise ValueError(kind)
        if kind == "Fp" and modulus is not None:
            # callers check primality (evaluate.is_prime); this only
            # rejects moduli below 2
            if modulus < 2:
                raise ValueError("not a prime")
        self.kind = kind
        self.modulus = modulus

    def coerce(self, x):
        if self.kind == "Q":
            return Fraction(x)
        x = int(x)
        if self.kind == "Fp":
            return x % self.modulus
        return x

    def add(self, a, b):
        c = a + b
        if self.kind == "Fp":
            c %= self.modulus
        return c

    def mul(self, a, b):
        c = a * b
        if self.kind == "Fp":
            c %= self.modulus
        return c

    def neg(self, a):
        if self.kind == "Fp":
            return (-a) % self.modulus
        return -a

    def is_unit(self, a):
        if self.kind == "Q":
            return a != 0
        if self.kind == "Z":
            return a in (1, -1)
        return math.gcd(int(a), self.modulus) == 1

    def inv(self, a):
        if self.kind == "Q":
            if a == 0:
                raise NonInvertibleVariable("zero in Q")
            return Fraction(1) / a
        if self.kind == "Z":
            if a in (1, -1):
                return a
            raise NonInvertibleVariable(f"{a} not a unit in Z")
        try:
            return pow(int(a), -1, self.modulus)
        except ValueError:
            raise NonInvertibleVariable(f"{a} not invertible mod {self.modulus}")

    def is_field(self):
        return self.kind in ("Fp", "Q")

    def __eq__(self, other):
        return (isinstance(other, BaseRing)
                and (self.kind, self.modulus) == (other.kind, other.modulus))

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        if self.modulus is None:
            return self.kind
        return f"{self.kind}({self.modulus})"


ZZ = BaseRing("Z")
QQ = BaseRing("Q")


def GF(p):
    return BaseRing("Fp", p)


class ModPoly:
    """Element of base[x]/(f(x)).

    The modulus is stored as a coefficient tuple (constant term first)
    with unit leading coefficient over the base; representatives are
    reduced to degree < deg(f).
    """

    __slots__ = ("base", "modulus", "coeffs")

    def __init__(self, base, modulus, coeffs):
        self.base = base
        modulus = tuple(base.coerce(c) for c in modulus)
        if len(modulus) < 2:
            raise ValueError("modulus must have degree >= 1")
        if not base.is_unit(modulus[-1]):
            raise ValueError("modulus leading coefficient must be a unit")
        self.modulus = modulus
        coeffs = [base.coerce(c) for c in coeffs]
        coeffs = self._reduce(base, modulus, coeffs)
        self.coeffs = tuple(coeffs)

    @staticmethod
    def _reduce(base, modulus, coeffs):
        deg = len(modulus) - 1
        if len(coeffs) > deg:
            lead_inv = base.inv(modulus[-1])
        for k in range(len(coeffs) - 1, deg - 1, -1):
            c = coeffs[k]
            if c:
                f = base.mul(c, lead_inv)
                for i in range(len(modulus)):
                    coeffs[k - deg + i] = base.add(
                        coeffs[k - deg + i], base.neg(base.mul(f, modulus[i])))
        coeffs = coeffs[:deg]
        while len(coeffs) < deg:
            coeffs.append(base.coerce(0))
        return coeffs

    @classmethod
    def constant(cls, base, modulus, value):
        return cls(base, modulus, [value])

    @classmethod
    def variable(cls, base, modulus):
        return cls(base, modulus, [0, 1])

    def _like(self, coeffs):
        """Result with this base and modulus; coeffs are already in the
        base, so nothing is coerced or checked again."""
        out = object.__new__(ModPoly)
        out.base = self.base
        out.modulus = self.modulus
        out.coeffs = tuple(self._reduce(self.base, self.modulus, coeffs))
        return out

    def _check(self, other):
        if not isinstance(other, ModPoly):
            other = ModPoly.constant(self.base, self.modulus, other)
        if other.base != self.base or other.modulus != self.modulus:
            raise ShapeMismatch("incompatible ModPoly operands")
        return other

    def __add__(self, other):
        other = self._check(other)
        return self._like([self.base.add(a, b)
                           for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return self._like([self.base.neg(a) for a in self.coeffs])

    def __sub__(self, other):
        other = self._check(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int) or (self.base.kind == "Q"
                                      and isinstance(other, Fraction)):
            c = self.base.coerce(other)
            return self._like([self.base.mul(a, c) for a in self.coeffs])
        other = self._check(other)
        out = [self.base.coerce(0)] * (2 * len(self.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = self.base.add(out[i + j],
                                                   self.base.mul(a, b))
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = ModPoly.constant(self.base, self.modulus, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ModPoly.constant(self.base, self.modulus, other)
        if not isinstance(other, ModPoly):
            return NotImplemented
        return (self.base == other.base and self.modulus == other.modulus
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.base, self.modulus, self.coeffs))

    def inverse(self):
        """Multiplicative inverse; requires a field base (extended
        Euclid against the modulus) or a unit constant."""
        if self.base.is_field():
            g, s = _poly_ext_gcd(self.base, list(self.coeffs),
                                 list(self.modulus))
            if len(g) != 1:
                raise NonInvertibleVariable("not invertible modulo modulus")
            ginv = self.base.inv(g[0])
            return self._like([self.base.mul(c, ginv) for c in s])
        if all(c == 0 for c in self.coeffs[1:]):
            return ModPoly.constant(self.base, self.modulus,
                                    self.base.inv(self.coeffs[0]))
        raise NonInvertibleVariable(
            "inverse over a non-field base needs a constant unit")

    def as_integer(self):
        """Value for a degree-1 modulus x - a: the residue f(a)."""
        if len(self.modulus) != 2:
            raise ShapeMismatch("modulus is not linear")
        return self.coeffs[0]

    def to_json(self):
        return {"base": repr(self.base),
                "modulus": [str(c) for c in self.modulus],
                "coeffs": [str(c) for c in self.coeffs]}

    def __repr__(self):
        return (f"ModPoly({self.base!r}, deg {len(self.modulus) - 1} modulus, "
                f"{list(self.coeffs)})")


def _poly_ext_gcd(base, a, b):
    """(g, s) with s*a = g mod b, over a field base; g normalized to a
    minimal-length coefficient list."""

    def strip(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def divmod_(num, den):
        num = num[:]
        q = [base.coerce(0)] * max(len(num) - len(den) + 1, 0)
        inv = base.inv(den[-1])
        for k in range(len(num) - len(den), -1, -1):
            f = base.mul(num[k + len(den) - 1], inv)
            q[k] = f
            if f:
                for i, d in enumerate(den):
                    num[k + i] = base.add(num[k + i], base.neg(base.mul(f, d)))
        return q, strip(num)

    r0, r1 = strip(list(b)), strip(list(a))
    s0, s1 = [base.coerce(0)], [base.coerce(1)]
    while r1:
        q, r = divmod_(r0, r1)
        r0, r1 = r1, r
        qs = _poly_mul(base, q, s1)
        s0, s1 = s1, strip([base.add(x, base.neg(y))
                            for x, y in _zip_pad(base, s0, qs)])
    return r0, s0


def _poly_mul(base, a, b):
    if not a or not b:
        return []
    out = [base.coerce(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = base.add(out[i + j], base.mul(x, y))
    return out


def _zip_pad(base, a, b):
    n = max(len(a), len(b))
    zero = base.coerce(0)
    a = a + [zero] * (n - len(a))
    b = b + [zero] * (n - len(b))
    return zip(a, b)


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


def reduce_mod(a, f, base=ZZ, var="q"):
    """Reduce a LaurentU modulo a polynomial f in the named power of u.

    f is the coefficient sequence of the modulus, constant term first
    (cyclotomic_coeffs gives it for Phi_n).  The remainder is taken over
    Z in one pass (remainder), so f must have leading coefficient +-1,
    and also f(0) = +-1 when a has negative exponents; cyclotomic moduli
    have both.  Z -> base is a ring map, so the result is the reduction
    over base.
    """
    step = {"q": 4, "v": 2, "u": 1}[var]
    start = -a.min % step
    for i, c in enumerate(a.coeffs):
        if c and (i - start) % step:
            raise NotInQ(f"exponent {a.min + i} not a multiple of {step}")
    rem = remainder((a.min + start) // step, a.coeffs[start::step], f)
    return ModPoly(base, f, rem)
