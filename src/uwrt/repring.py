"""The representation ring of quantized sl2: the V, P and P' bases and
the twist elements omega^p.

The basis families, indexed by n >= 0:

    V_n       irreducibles
    P_n       prod_{i=0}^{n-1} (V_1 - v^(2i+1) - v^(-2i-1))
    P'_n      P_n / {n}!

Every coefficient is a Laurent polynomial in u: V and P expand in each
other over Z[u^+-1], P'-combinations multiply by integral structure
constants, and the P-coordinates of a P'-combination come from one
exact division by {n}! at the end.

The twist element omega^p = sum_n omega^p_n P'_n is -1/p surgery on a
component; a +-1 surgery framing f is the case p = -f.  omega^p_n sums,
over the partial sums 0 = s_0 <= s_1 <= ... <= s_|p| = n, the
q-multinomial prod_l [s_l choose s_(l-1)]_q times a power of q with one
term per step: +-(s_l^2 + s_l) at each interior s_l, with the sign of
p, and for p < 0 also -(s_l - s_(l-1)) s_(l-1) at every step: the sum
for |p| at 1/q, as [t choose s]_(1/q) = q^(s(s-t)) [t choose s]_q.
omega_row takes the steps once for every n < N, packed: at each s_l = t,
the sum over s <= t of [t choose s]_q times the last sum at s, by the
q-Pascal rule with additions and shifts only, then shifted by q^(t^2 +
t); no coefficient is negative, so the same pass at q = 1 proves the
digit width (laurent.packed_q_values).
"""

from __future__ import annotations

from functools import lru_cache, partial

from .errors import InputError
from .laurent import (ONE, ZERO, LaurentU, falling_bal, packed_q_values,
                      qbinom_bal, qfact_bal, qnum, v_pow)

BASES = ("V", "P", "P'")


class BasisCombo:
    """Finitely supported formal combination of basis elements of one
    family, with LaurentU coefficients; repeated indices are summed."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms=()):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for n, c in items:
            clean[n] = clean.get(n, ZERO) + c
        self.terms = {n: c for n, c in sorted(clean.items())
                      if not c.is_zero()}

    @staticmethod
    def unit(basis, n):
        return BasisCombo(basis, {n: ONE})

    def truncate(self, N):
        """Drop terms of index >= N."""
        return BasisCombo(self.basis,
                          {n: c for n, c in self.terms.items() if n < N})

    def __eq__(self, other):
        return (isinstance(other, BasisCombo) and self.basis == other.basis
                and self.terms == other.terms)


# -- base change -----------------------------------------------------------


@lru_cache(maxsize=None)
def _p_rows():
    return [{0: ONE}]     # [V-coefficients of P_0, P_1, ...], grown by p_in_v


def p_in_v(n):
    """V-basis coefficients of P_n, from its definition: P_n = P_(n-1)
    (V_1 - v^(2n-1) - v^(1-2n)) with V_1 V_i = V_(i-1) + V_(i+1), so
    each new row takes additions and monomial products only.  The rows
    are kept, and each new n is one step from the longest kept."""
    rows = _p_rows()
    while len(rows) <= n:
        k = len(rows)
        shift = v_pow(2 * k - 1) + v_pow(1 - 2 * k)
        row = {}
        for i, c in rows[-1].items():
            for j, t in ((i - 1, c), (i + 1, c), (i, -c * shift)):
                if j >= 0:
                    row[j] = row.get(j, ZERO) + t
        rows.append({i: c for i, c in sorted(row.items()) if not c.is_zero()})
    return rows[n]


@lru_cache(maxsize=None)
def _v_in_p(n):
    """P-basis coefficients of V_n."""
    return {i: qbinom_bal(n + i + 1, 2 * i + 1) for i in range(n + 1)}


def to_P(x):
    """Expand a combo in the P-basis.  A P'-combination divides each
    coefficient of P'_n exactly by {n}! (NonExactDivision when its
    P-coordinates are not Laurent polynomials)."""
    if x.basis == "P":
        return x
    if x.basis == "P'":
        return BasisCombo("P", {n: c.exact_div(qfact_bal(n))
                                for n, c in x.terms.items()})
    return BasisCombo("P", [(m, a * c) for n, c in x.terms.items()
                            for m, a in _v_in_p(n).items()])


def to_V(x):
    """Expand a combo in the V-basis, through the P-basis."""
    if x.basis == "V":
        return x
    return BasisCombo("V", [(m, a * c) for n, c in to_P(x).terms.items()
                            for m, a in p_in_v(n).items()])


def pairing(x, y):
    """The Hopf-link pairing <V_m, V_n> = [(m+1)(n+1)], extended
    bilinearly through the V-basis."""
    acc = ZERO
    for m, a in to_V(x).terms.items():
        for n, b in to_V(y).terms.items():
            acc = acc + a * b * qnum((m + 1) * (n + 1))
    return acc


# -- the twist element and its powers ---------------------------------------


# The work p^2 (n^4 + 8) modelled a pass per n; on the bound, the packed
# row through P'_n takes 0.07-0.25 s (timed at (|p|, n) = (4000, 1), (1000,
# 3), (300, 6), (120, 10), (40, 17), (20, 24), (6, 45), (3, 63), (2, 78),
# on one shared Intel Xeon core, CPython 3.11).  Past the bound, a row is
# refused before any work.
_OMEGA_WORK = 150_000_000


def check_omega_work(p, n):
    """Refuse omega^p_n if its work p^2 (n^4 + 8) passes _OMEGA_WORK."""
    if p * p * (n ** 4 + 8) > _OMEGA_WORK:
        raise InputError(f"omega^{p} at P'_{n}: work p^2 (n^4 + 8) passes "
                         f"{_OMEGA_WORK:,}")


def _pascal_sums(row, bits):
    """[sum_(s <= t) [t choose s]_q row[s] for t < len(row)] at q = 2^bits,
    by the q-Pascal rule [t, s] = [t-1, s-1] + q^s [t-1, s]: the sum at t
    is the sum at t - 1 of the row whose entry s is row[s+1] + q^s row[s]."""
    sums = []
    for _ in row:
        sums.append(row[0])
        row = [b + (a << bits * s)
               for s, (a, b) in enumerate(zip(row, row[1:]))]
    return sums


def _omega_sums(k, N, bits):
    """The q-multinomial sums of omega^k_n, k >= 2, for n < N at q = 2^bits:
    the l-th row holds the sums over s_1..s_(l-1) at each s_l < N."""
    shifts = [bits * (t * t + t) for t in range(N)]
    sums = [1 << shift for shift in shifts]
    for _ in range(k - 2):
        sums = [c << shift
                for c, shift in zip(_pascal_sums(sums, bits), shifts)]
    return _pascal_sums(sums, bits)


def omega_row(p, N):
    """[omega^p_n for n < N], refused before any work if some n passes the
    work bound: v^(n(n+3)/2) times the sum for p > 0, (-1)^n v^(-n(n+3)/2)
    times it for p < 0, the sums from one packed pass (module docstring)."""
    for n in range(1, N):
        check_omega_work(p, n)
    if p == 0:
        return [ONE if n == 0 else ZERO for n in range(N)]
    sign = 1 if p > 0 else -1
    # for |p| = 1, or for n = 0 alone, every sum is 1
    sums = ([ONE] * N if abs(p) == 1 or N < 2 else
            packed_q_values(partial(_omega_sums, abs(p), N)))
    if p < 0:       # the sums at 1/q; each has constant term 1
        sums = [LaurentU(4 - 4 * len(run), run[::-1], 4)
                for _, run in map(LaurentU.q_run, sums)]
    return [v_pow(sign * n * (n + 3) // 2, sign ** n) * c
            for n, c in enumerate(sums)]


@lru_cache(maxsize=None)
def omega_coeff(p, n):
    """Coefficient of P'_n in omega^p: the last entry of its row."""
    return omega_row(p, n + 1)[n]


def omega_truncated(p, N):
    """omega^p in the P'-basis, keeping indices < N."""
    return BasisCombo("P'", enumerate(omega_row(p, N)))


@lru_cache(maxsize=None)
def pprime_mul_unit(m, n):
    """P'_m P'_n in the P'-basis: {l: c_l}, with the Laurent
    coefficients c_{m+n-i} = {m+n}! / ({i}! {m-i}! {n-i}!), as the falling
    product {m+n}_i times two binomials."""
    return {m + n - i: falling_bal(m + n, i) * qbinom_bal(m + n - i, i)
            * qbinom_bal(m + n - 2 * i, m - i) for i in range(min(m, n) + 1)}


def pprime_mul(x, y):
    """Product of two P'-basis combos."""
    return BasisCombo("P'", [(l, a * b * c)
                             for m, a in x.terms.items()
                             for n, b in y.terms.items()
                             for l, c in pprime_mul_unit(m, n).items()])
