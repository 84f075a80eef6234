"""Specializations of Habiro elements away from the cyclotomic picture.

Three evaluation maps: at a rational point a/b modulo an integer
coprime to ab, at an integer unit p-adically to finite precision, and
over F_p[q]/(Phi_r) packaging the mod-p values at all primitive r-th
roots of unity at once.  Every value is a finite, exactly checkable
residue; the truncation bound is derived per call from the vanishing of
the shifted factorials (x)_n at the evaluation point.
"""

from __future__ import annotations

import math

from .errors import DepthExceeded, InputError, NotAUnit, NotCoprime, NotInQ
from .laurent import ModPoly, cyclotomic_coeffs, is_unit, remainder


class ResidueValue:
    """A reduced residue together with its modulus descriptor.

    kind is "int" (modulus m), "prime-power" (modulus (p, e)) or
    "modp-poly" (modulus (p, r), value a ModPoly over F_p mod Phi_r).
    """

    __slots__ = ("kind", "modulus", "value")

    def __init__(self, kind, modulus, value):
        if kind not in ("int", "prime-power", "modp-poly"):
            raise ValueError(kind)
        self.kind = kind
        self.modulus = modulus
        self.value = value

    def __eq__(self, other):
        return (isinstance(other, ResidueValue) and self.kind == other.kind
                and self.modulus == other.modulus
                and self.value == other.value)

    def __repr__(self):
        return f"ResidueValue({self.kind}, {self.modulus}, {self.value!r})"

    def to_json(self):
        if self.kind == "modp-poly":
            value = [int(c) for c in self.value.coeffs]
        else:
            value = int(self.value)
        return {"kind": self.kind,
                "modulus": list(self.modulus)
                if isinstance(self.modulus, tuple) else self.modulus,
                "value": value}


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Miller-Rabin with the first 13 primes as bases: exact for
    n < 3.3 * 10^24, a strong probable-prime test above."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1      # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _eval_poly_mod(c, s, m):
    """A Laurent polynomial in q at q = s modulo m (s a unit mod m)."""
    acc = 0
    sinv = None
    for i, co in enumerate(c.coeffs):
        if not co:
            continue
        e = c.min + i
        if e % 4:
            raise NotInQ("element involves fractional powers of q")
        k = e // 4
        if k >= 0:
            acc += co * pow(s, k, m)
        else:
            if sinv is None:
                sinv = pow(s, -1, m)
            acc += co * pow(sinv, -k, m)
    return acc % m


def eval_rational(x, a, b, m):
    """Value at q = a/b modulo m, for gcd(m, ab) = 1.

    The sum truncates at the multiplicative order r of a/b mod m, since
    (a/b)_r contains the factor 1 - (a/b)^r = 0 mod m.
    """
    check_rational(a, b, m)
    if m == 1:
        return ResidueValue("int", 1, 0)
    s = a * pow(b, -1, m) % m
    order = 1
    t = s
    while t != 1:
        if order >= x.depth:
            raise DepthExceeded(
                f"depth {x.depth} < multiplicative order of {a}/{b} "
                f"mod {m}")
        t = t * s % m
        order += 1
    acc = 0
    poch = 1
    spow = 1
    for n in range(order):
        c = x.terms[n]
        if not c.is_zero():
            acc = (acc + _eval_poly_mod(c, s, m) * poch) % m
        spow = spow * s % m
        poch = poch * (1 - spow) % m
    return ResidueValue("int", m, acc)


def eval_padic(x, s, p, e):
    """Value at q = s modulo p^e, for an integer s not divisible by p.

    The sum truncates at the first n with p-valuation of the integer
    (s)_n at least e; that index is found by accumulating exact
    valuations factor by factor.
    """
    check_padic(s, p, e)
    pe = p ** e
    acc = 0
    poch = 1          # (s)_n as an exact integer
    n = 0
    while _valuation(poch, p) < e:
        if n >= x.depth:
            raise DepthExceeded(
                f"depth {x.depth} too small for precision {p}^{e} at {s}")
        c = x.terms[n]
        if not c.is_zero():
            acc = (acc + _eval_poly_mod(c, s % pe, pe) * (poch % pe)) % pe
        n += 1
        poch *= 1 - s ** n
    return ResidueValue("prime-power", (p, e), acc)


def _valuation(n, p):
    if n == 0:
        return math.inf
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def modp_value(x, p, r):
    """The element evaluated over F_p[q]/(Phi_r mod p): the mod-p WRT
    value at every primitive r-th root of unity simultaneously."""
    check_modp(p, r)
    if x.depth < r:
        raise DepthExceeded(f"depth {x.depth} < r = {r}")
    f = cyclotomic_coeffs(r)
    acc = ModPoly(f, remainder(*x.expand(r), f), p)
    return ResidueValue("modp-poly", (p, r), acc)


def modp_nonvanishing(value):
    """True iff a mod-p value (the ModPoly of modp_value) is nonzero at
    every primitive r-th root, i.e. invertible mod (p, Phi_r)."""
    return is_unit(value.coeffs, value.modulus, value.p)


# -- parameter checks, which need no element and so run before one is built


def check_rational(a, b, m):
    if m < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(m, a * b) != 1:
        raise NotCoprime(f"gcd({m}, {a}*{b}) != 1")


def check_padic(s, p, e):
    if e < 1:
        raise ValueError("precision must be positive")
    if not is_prime(p):
        raise InputError(f"{p} is not a prime")
    if s % p == 0:
        raise NotAUnit(f"{s} is not a unit modulo {p}")


def check_modp(p, r):
    if not is_prime(p):
        raise InputError(f"{p} is not a prime")
    if math.gcd(p, r) != 1:
        raise NotCoprime(f"gcd({p}, {r}) != 1")
    if r < 1:
        raise ValueError("r must be >= 1")
