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

from .errors import (DepthExceeded, InputError, NotAUnit, NotCoprime,
                     require_positive)
from .laurent import ModPoly, cyclotomic_coeffs, is_unit
from .qhat import eval_root


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


def truncation_index(s, m, point, depth):
    """The first n <= depth with (s)_n = 0 mod m, s a unit mod m: every
    term of sum_n c_n (s)_n from there on vanishes, so its value reads n
    terms.  point names q and the modulus as the caller gave them, for
    DepthExceeded: m itself may have too many digits to print."""
    n = 0
    poch = 1 % m          # (s)_n mod m
    while poch:
        if n >= depth:
            raise DepthExceeded(
                f"(q)_n at {point} does not vanish within depth {depth}")
        n += 1
        poch = poch * (1 - pow(s, n, m)) % m
    return n


def _truncated_value(x, s, m, point):
    """sum_n c_n (s)_n modulo m: the q-polynomial x.expand(n) at q = s,
    taken by Horner mod m, n the truncation index."""
    lo, run = x.expand(truncation_index(s, m, point, x.depth))
    acc = 0
    for c in reversed(run):
        acc = (acc * s + c) % m
    return acc * pow(s, lo, m) % m


def eval_rational(x, a, b, m):
    """Value at q = a/b modulo m, for gcd(m, ab) = 1.

    The sum truncates at the first n with (a/b)_n = 0 mod m, at the
    latest the multiplicative order r of a/b mod m, since (a/b)_r
    contains the factor 1 - (a/b)^r = 0 mod m.
    """
    return ResidueValue("int", m,
                        _truncated_value(x, *rational_point(a, b, m)))


def eval_padic(x, s, p, e):
    """Value at q = s modulo p^e, for an integer s not divisible by p.

    The sum truncates at the first n with (s)_n = 0 mod p^e.
    """
    return ResidueValue("prime-power", (p, e),
                        _truncated_value(x, *padic_point(s, p, e)))


def modp_value(x, p, r):
    """The element evaluated over F_p[q]/(Phi_r mod p): the mod-p WRT
    value at every primitive r-th root of unity simultaneously."""
    check_modp(p, r)
    val = eval_root(x, r)          # over Z; reducing mod p is a ring map
    return ResidueValue("modp-poly", (p, r), ModPoly(
        cyclotomic_coeffs(r), [val] if r == 1 else val.coeffs, p))


def modp_nonvanishing(value):
    """True iff a mod-p value (the ModPoly of modp_value) is nonzero at
    every primitive r-th root, i.e. invertible mod (p, Phi_r)."""
    return is_unit(value.coeffs, value.modulus, value.p)


# -- parameter checks, which need no element and so run before one is built


def rational_point(a, b, m):
    """(s, m, point) for q = a/b mod m, after checking m, a and b."""
    require_positive("modulus", m)
    if math.gcd(m, a * b) != 1:
        raise NotCoprime(f"gcd({m}, {a}*{b}) != 1")
    return a * pow(b, -1, m) % m, m, f"q = {a}/{b} mod {m}"


def padic_point(s, p, e):
    """(s mod p^e, p^e, point) for q = s mod p^e, after checking s, p, e."""
    require_positive("precision", e)
    if not is_prime(p):
        raise InputError(f"{p} is not a prime")
    if s % p == 0:
        raise NotAUnit(f"{s} is not a unit modulo {p}")
    return s % p ** e, p ** e, f"q = {s} mod {p}^{e}"


def check_modp(p, r):
    require_positive("r", r)
    if not is_prime(p):
        raise InputError(f"{p} is not a prime")
    if math.gcd(p, r) != 1:
        raise NotCoprime(f"gcd({p}, {r}) != 1")
