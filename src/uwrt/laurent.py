"""Exact Laurent-polynomial arithmetic in u = q^(1/4) over Z, and
quotient rings Z[x]/(f) and F_p[x]/(f).

Everything downstream is expressed in the single variable u; v = u^2 and
q = u^4 are its subrings, and each value is stored as a run in steps of
q, v or u, the coarsest its terms allow.  Coefficients are Python ints,
so they are arbitrary precision by construction.  All values are
immutable.
A product by a monomial scales and shifts the other run; one whose
shorter run has fewer than _PACK_MIN entries takes the schoolbook loop;
any other packs both runs (encode_run, the one codec) at a digit width
that max|a| max|b| min(len a, len b) proves and multiplies them as ints.
Packing is a ring map, so only the final digits must fit: a q-binomial is
one packed product of cyclotomic polynomials, at the width that its
coefficient sum proves, since no coefficient is negative.
Every quotient is by a modulus with unit leading coefficient, so
remainders are taken over Z and reduced mod p afterwards; no fraction
is ever formed.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from math import comb, gcd, prod
from operator import add, neg

from .errors import (NonExactDivision, NonInvertibleVariable, NotAUnit, NotInQ,
                     ShapeMismatch, require_positive)


class RingElem:
    """Subtraction for the ring element types, from their addition and
    negation."""

    __slots__ = ()

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other


def _power(base, one, n):
    """base ** n by square-and-multiply, one the ring's unit; n >= 0."""
    if n < 0:
        raise ValueError("powers must be >= 0")
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


class LaurentU(RingElem):
    """Laurent polynomial in u, stored by its grading as (lo, step, run):
    the value sum_i run[i] u^(lo + step*i).

    step is the largest of 4, 2 and 1 that divides every exponent gap
    between nonzero terms, so u^r times a polynomial in q is a run in
    steps of q.  Canonical form: the first and last entries of run are
    nonzero and step is as coarse as it can be; zero is (0, 4, ()).
    min and coeffs view the value as a run in u with its zeros.
    """

    __slots__ = ("_lo", "_step", "_run")

    def __init__(self, min_exponent=0, coeffs=(), step=1):
        """sum_i coeffs[i] u^(min_exponent + step*i), step 1, 2 or 4, in
        canonical form: zero ends stripped, then step doubled while every
        odd entry is 0."""
        run = coeffs if isinstance(coeffs, (list, tuple)) else list(coeffs)
        hi = len(run)
        while hi and not run[hi - 1]:
            hi -= 1
        start = 0
        while start < hi and not run[start]:
            start += 1
        if start or hi < len(run):
            run = run[start:hi]
        min_exponent += step * start
        while step < 4 and not any(run[1::2]):
            run = run[::2]
            step *= 2
        self._lo = min_exponent if run else 0
        self._step = step
        self._run = tuple(run)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_q_coeffs(min_q_exponent, coeffs):
        """Polynomial in q with the given q-coefficient run."""
        return LaurentU(4 * min_q_exponent, coeffs, 4)

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self._run

    @property
    def min(self):
        return self._lo

    @property
    def coeffs(self):
        """The coefficients of u^min, u^(min+1), ..., up to the top term."""
        return tuple(_spread(self._run, self._step))

    def is_in_q(self):
        return self._step == 4 and not self._lo % 4

    def is_in_v(self):
        return self._step != 1 and not self._lo % 2

    def q_run(self):
        """(lo, run) with self = u^lo * sum_i run[i] q^i, the inverse of
        LaurentU(lo, run, 4); NotInQ when the u-exponents lie in several
        residues mod 4."""
        if self._step != 4:
            raise NotInQ("u-exponents in several residues mod 4")
        return self._lo, self._run

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = u_pow(0, other)
        if not isinstance(other, LaurentU):
            return NotImplemented
        if not self._run:
            return other
        if not other._run:
            return self
        if self._lo > other._lo:
            self, other = other, self
        lo, gap = self._lo, other._lo - self._lo
        step = gcd(self._step, other._step, gap)
        out = _spread(self._run, self._step // step)
        b = _spread(other._run, other._step // step)
        at = gap // step
        out += [0] * (at + len(b) - len(out))
        out[at:at + len(b)] = map(add, out[at:at + len(b)], b)
        return LaurentU(lo, out, step)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(self._lo, self._step, tuple(map(neg, self._run)))

    def __mul__(self, other):
        if isinstance(other, int):
            other = u_pow(0, other)
        if not isinstance(other, LaurentU):
            return NotImplemented
        if len(self._run) < len(other._run):
            self, other = other, self
        a, b = self._run, other._run
        if not b:
            return ZERO
        lo = self._lo + other._lo
        if len(b) == 1:
            # a monomial scales and shifts a: its gaps and step stay
            return _canonical(lo, self._step, a if b[0] == 1 else tuple(
                [b[0] * c for c in a]))
        step = min(self._step, other._step)
        ka, kb = self._step // step, other._step // step
        if len(b) >= _PACK_MIN:
            width = _width(max(map(abs, a)) * max(map(abs, b)) * len(b))
            mag = (encode_run(_spread(a, ka), width)
                   * encode_run(_spread(b, kb), width))
            return LaurentU(lo, decode_run(mag, width), step)
        out = [0] * (ka * (len(a) - 1) + kb * (len(b) - 1) + 1)
        a = [(ka * i, ca) for i, ca in enumerate(a) if ca]
        for j, cb in enumerate(b):
            if cb:
                j *= kb
                for i, ca in a:
                    out[i + j] += ca * cb
        return LaurentU(lo, out, step)

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, ONE, n)

    def exact_div(self, other):
        """Exact quotient self / other in Z[u, u^-1].

        Raises NonExactDivision when the quotient does not exist; this is
        a hard error everywhere it is used as an integrality assertion.
        Two values graded mod 4 (or 2) have a quotient graded mod 4 (or 2).
        """
        if not isinstance(other, LaurentU):
            other = u_pow(0, other)
        if not other._run:
            raise NonExactDivision("division by zero")
        if not self._run:
            return ZERO
        step = min(self._step, other._step)
        rem = _spread(self._run, self._step // step)
        sd = other._step // step
        div = [(sd * i, d) for i, d in enumerate(other._run) if d]
        top, dlead = div[-1]
        n = len(rem) - 1 - top
        if n < 0:
            raise NonExactDivision("degree too small")
        quot = [0] * (n + 1)
        for k in range(n, -1, -1):
            c = rem[k + top]
            if c % dlead:
                raise NonExactDivision("leading coefficient does not divide")
            f = c // dlead
            quot[k] = f
            if f:
                for i, d in div:
                    rem[k + i] -= f * d
        if any(rem):
            raise NonExactDivision("nonzero remainder")
        return LaurentU(self._lo - other._lo, quot, step)

    # -- comparisons / hashing -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = u_pow(0, other)
        if not isinstance(other, LaurentU):
            return NotImplemented
        return (self._lo == other._lo and self._step == other._step
                and self._run == other._run)

    def __hash__(self):
        return hash((self._lo, self._step, self._run))

    # -- rendering ------------------------------------------------------

    def __repr__(self):
        return f"LaurentU({self.to_str()!r})"

    def to_str(self):
        if not self._run:
            return "0"
        var, unit = (("q", 4) if self.is_in_q() else
                     ("v", 2) if self.is_in_v() else ("u", 1))
        parts = []
        for i in range(len(self._run) - 1, -1, -1):
            c = self._run[i]
            if not c:
                continue
            e = (self._lo + self._step * i) // unit
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


def _canonical(lo, step, run):
    """The LaurentU (lo, step, run) of a tuple run already canonical."""
    out = object.__new__(LaurentU)
    out._lo, out._step, out._run = lo, step, run
    return out


def _spread(run, k):
    """A new list of run's entries with k - 1 zeros between them."""
    out = [0] * (k * len(run) - k + 1)
    out[::k] = run
    return out


# -- the Kronecker codec: run[k] as digit k of one int in base 2^(8 width) --

_PACK_MIN = 16      # the shorter run's length from which __mul__ packs


def _width(bound):
    """Bytes of a balanced digit past +-bound: the fewest, but at least 8."""
    return max(8, bound.bit_length() // 8 + 1)


def _bias(n, width):
    """X/2 in each of n digits: added, it turns balanced digits unsigned."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def encode_run(run, width):
    """sum_k run[k] X^k, X = 2^(8 width), each |run[k]| < X/2: the entries
    biased into unsigned words, 8-byte ones an array, read as one int."""
    half = 1 << 8 * width - 1
    words = array("Q", [c + half for c in run]) if width == 8 else b"".join(
        [(c + half).to_bytes(width, sys.byteorder) for c in run])
    return int.from_bytes(words, sys.byteorder) - _bias(len(run), width)


def decode_run(mag, width):
    """The balanced base-X digits of mag, lowest first, zeros on top."""
    n, half = mag.bit_length() // (8 * width) + 2, 1 << 8 * width - 1
    raw = (mag + _bias(n, width)).to_bytes(width * n, sys.byteorder)
    words = memoryview(raw).cast("Q") if width == 8 else [
        int.from_bytes(raw[k:k + width], sys.byteorder)
        for k in range(0, len(raw), width)]
    return [w - half for w in words]


def u_pow(k, coefficient=1):
    """The monomial coefficient * u^k, the one monomial constructor."""
    return LaurentU(k, (coefficient,), 4)


def v_pow(k, coefficient=1):
    return u_pow(2 * k, coefficient)


def q_pow(k, coefficient=1):
    return u_pow(4 * k, coefficient)


ZERO = LaurentU()
ONE = u_pow(0)


# -- cyclotomic polynomials ----------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic(n):
    """n-th cyclotomic polynomial in q, by the divisor recursion."""
    require_positive("n", n)
    acc = q_pow(n) - 1
    for d in range(1, n):
        if n % d == 0:
            acc = acc.exact_div(cyclotomic(d))
    return acc


def cyclotomic_coeffs(n):
    """q-coefficients of the n-th cyclotomic polynomial, constant term
    first: its q-run, which starts at q^0 since Phi_n(0) = +-1."""
    return cyclotomic(n).q_run()[1]


def cyclotomic_product(ds, bound):
    """prod_(d in ds) Phi_d(q), its coefficients at most bound in absolute
    value: packed at a width that bound and the factors' heights prove, and
    multiplied in pairs up a balanced tree, never a long int by a short."""
    runs = [cyclotomic_coeffs(d) for d in ds]
    width = _width(max([bound] + [max(map(abs, run)) for run in runs]))
    mags = [encode_run(run, width) for run in runs]
    while len(mags) > 1:
        mags = [prod(mags[k:k + 2]) for k in range(0, len(mags), 2)]
    return LaurentU(0, decode_run(mags[0] if mags else 1, width), 4)


# -- q-combinatorics ------------------------------------------------------
#
# One family, built on the q-integers {i}_q = q^i - 1.  The balanced
# integers {i} = v^i - v^(-i) = v^(-i) {i}_q differ from them by a
# v-monomial, so each balanced product is the q-product times one power
# of v, and [i] = {i}/{1} = v^(1-i)(1 + q + ... + q^(i-1)).  Falling
# products are multiplied out and binomials are cyclotomic products.

@lru_cache(maxsize=None)
def falling_q(i, n):
    """{i}_{q,n} = {i}_q {i-1}_q ... {i-n+1}_q (1 for n <= 0), cached."""
    return prod((q_pow(i - k) - 1 for k in range(n)), start=ONE)


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


@lru_cache(maxsize=None)
def qbinom_q(i, n):
    """[i choose n]_q = {i}_{q,n} / {n}_q!, 0 <= n <= i, cached: the
    product of the Phi_d(q), d >= 2, with floor(i/d) - floor(n/d) -
    floor((i-n)/d) = 1, at the width its coefficient sum C(i, n) proves."""
    if not 0 <= n <= i:
        raise ValueError(f"q-binomial needs 0 <= n <= i, got i = {i}, n = {n}")
    return cyclotomic_product(
        [d for d in range(2, i + 1) if i // d - n // d - (i - n) // d],
        comb(i, n))


def packed_q_values(build):
    """The q-polynomials that build(bits) forms at q = 2^bits.  None may
    have a negative coefficient: then each coefficient is at most the
    value at q = 1, and the largest of build(0) proves the digit width."""
    width = _width(max(build(0), default=0))
    return [LaurentU(0, decode_run(mag, width), 4) for mag in build(8 * width)]


def qbinom_bal(i, n):
    """{i}_n / {n}! = v^(n(n-i)) qbinom_q(i, n)."""
    return v_pow(n * (n - i)) * qbinom_q(i, n)


def qnum(i):
    """Balanced quantum integer [i] = {i}/{1}; [-i] = -[i]."""
    if i < 0:
        return -qnum(-i)
    return LaurentU(2 * (1 - i), [1] * i, 4)


# -- quotient rings over Z and F_p ---------------------------------------


class ModPoly(RingElem):
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
        return _power(self, self._like([1]), n)

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


def reduce_mod(a, f, var="q"):
    """Reduce a LaurentU modulo a polynomial f in q (var "q") or in u
    (var "u"), over Z.

    f is the coefficient sequence of the modulus, constant term first
    (cyclotomic_coeffs gives it for Phi_n).  The remainder is taken over
    Z in one pass (remainder), so f must have leading coefficient +-1,
    and also f(0) = +-1 when a has negative exponents; cyclotomic moduli
    have both.  Z -> F_p is a ring map, so ModPoly(f, coeffs, p) of the
    result is the reduction over F_p.
    """
    if var == "u":
        return ModPoly(f, remainder(a._lo, _spread(a._run, a._step), f))
    if not a.is_in_q():
        raise NotInQ("value is not a polynomial in q")
    return ModPoly(f, remainder(a._lo // 4, a._run, f))
