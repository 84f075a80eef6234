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
"""

from __future__ import annotations

from .errors import DepthExceeded, InputError, NotInQ
from .laurent import (LaurentU, ONE, ZERO, ZZ, ModPoly, cyclotomic_coeffs,
                      pochhammer, q_pow, reduce_mod, remainder)

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

    @staticmethod
    def one(depth=DEFAULT_DEPTH):
        return HabiroElem(depth, {0: ONE})

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
        """The Laurent polynomial sum_{n<d} c_n (q)_n."""
        return sum((self.terms[n] * pochhammer(n) for n in range(d)), ZERO)

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
    acc = x.expand(d)
    rem = remainder(acc.min // 4, acc.coeffs[::4], pochhammer(d).coeffs[::4])
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
    val = reduce_mod(x.expand(r), cyclotomic_coeffs(r), ZZ, "q")
    return val.as_integer() if r == 1 else val


# -- Taylor expansion at roots of unity ---------------------------------------


class JetPoly:
    """Element of Z[x][q] / (Phi_r(x), (q - x)^d): a truncated Taylor
    series in h = q - x with ModPoly coefficients."""

    __slots__ = ("r", "d", "coeffs")

    def __init__(self, r, d, coeffs):
        self.r = r
        self.d = d
        self.coeffs = tuple(coeffs)

    @staticmethod
    def constant(r, d, value):
        zero = ModPoly(ZZ, cyclotomic_coeffs(r), [0])
        return JetPoly(r, d, [value] + [zero] * (d - 1))

    @staticmethod
    def variable_q(r, d):
        """The image of q: x + h."""
        mod = cyclotomic_coeffs(r)
        coeffs = [ModPoly.variable(ZZ, mod)]
        if d > 1:
            coeffs.append(ModPoly.constant(ZZ, mod, 1))
        coeffs += [ModPoly(ZZ, mod, [0])] * (d - len(coeffs))
        return JetPoly(r, d, coeffs)

    def __add__(self, other):
        return JetPoly(self.r, self.d,
                       [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return JetPoly(self.r, self.d, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        zero = ModPoly(ZZ, cyclotomic_coeffs(self.r), [0])
        out = [zero] * self.d
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(self.d - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return JetPoly(self.r, self.d, out)

    def q_inverse_times(self, k):
        """Multiply by q^(-k) = (x + h)^(-k)."""
        mod = cyclotomic_coeffs(self.r)
        xinv = ModPoly.variable(ZZ, mod).invert_variable()
        zero = ModPoly(ZZ, mod, [0])
        # (x+h)^(-1) = x^(-1) sum_j (-x^(-1) h)^j
        inv = JetPoly(self.r, self.d,
                      [xinv * ((-xinv) ** j if j else 1)
                       for j in range(self.d)])
        result = self
        for _ in range(k):
            result = result * inv
        return result


def _jet_of(poly, r, d):
    """Image of a Laurent polynomial in q in the jet ring."""
    qvar = JetPoly.variable_q(r, d)
    lo = poly.min // 4 if not poly.is_zero() else 0
    shift = max(0, -lo)
    shifted = poly * q_pow(shift)
    mod = cyclotomic_coeffs(r)
    acc = JetPoly.constant(r, d, ModPoly(ZZ, mod, [0]))
    # Horner from the top q-degree down
    hi = shifted.max // 4 if not shifted.is_zero() else 0
    for k in range(hi, -1, -1):
        acc = acc * qvar
        c = shifted.q_coeff(k)
        if c:
            acc = acc + JetPoly.constant(r, d, ModPoly.constant(ZZ, mod, c))
    if shift:
        acc = acc.q_inverse_times(shift)
    return acc


def taylor(x, r, d):
    """The first d Taylor coefficients of x at a primitive r-th root of
    unity, each an element of Z[x]/(Phi_r)."""
    if d < 1:
        raise InputError(f"coefficient count must be >= 1, got {d}")
    if x.depth < r * d:
        raise DepthExceeded(f"depth {x.depth} < r*d = {r * d}")
    mod = cyclotomic_coeffs(r)
    acc = JetPoly.constant(r, d, ModPoly(ZZ, mod, [0]))
    one = JetPoly.constant(r, d, ModPoly.constant(ZZ, mod, 1))
    pochs = [one]
    qvar = JetPoly.variable_q(r, d)
    qpow = one
    for n in range(1, x.depth):
        qpow = qpow * qvar
        pochs.append(pochs[-1] * (one - qpow))
    for n in range(x.depth):
        c = x.terms[n]
        if c.is_zero():
            continue
        acc = acc + _jet_of(c, r, d) * pochs[n]
    return list(acc.coeffs)


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
