"""Invariants of integral homology spheres and knots built on the engine.

The central object is the unified invariant J_M living in the completed
ring handled by qhat.  It is computed either from an admissible surgery
presentation (an algebraically split diagram, its components drawn with
any writhe, and a list of +-1 framings) or from the closed formulas for
the family obtained by surgery on the Borromean rings.  Both sum over
P'-colours with the twist coefficients omega^p_k of repring: surgery
coefficient -1/p on a component contributes omega^p_k, and a framing
f = +-1 is the case p = -f.  Specializations provided here: the
classical WRT value at a root of unity, the Ohtsuki series with its
congruence checks, and the two-variable knot invariant with its
theta-specializations.  The WRT value is the colour sum divided by the
framed unknots U_f, one exact division by (2r)^b through the Gauss-sum
identity U_f (-U_(-f) {1}^2) = 2r, read off in the subring Z[q].
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache

from .errors import (DepthExceeded, DomainError, InputError,
                     NonExactDivision, NotAdmissible, NotAKnot, NotInQSubring,
                     UnknownName, require_positive)
from .laurent import (ModPoly, ONE, ZERO, cyclotomic_coeffs,
                      cyclotomic_product, falling_bal, pochhammer, q_pow,
                      qfact_bal, qint_bal, reduce_mod, remainder, v_pow)
from .qhat import DEFAULT_DEPTH, HabiroElem, eval_root, taylor
from .repring import omega_coeff, omega_row
from .tangles import (BUILTIN_NAMES, Diagram, builtin, colour_sum,
                      parse_diagram, pprime_table)

# -- surgery presentations ---------------------------------------------------


def read_text(path):
    """The text of a file; UnknownName if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UnknownName(f"cannot read {path}: {exc.strerror}")


class SurgeryPresentation:
    """Either a diagram with framing data, or a named family.

    Diagram form: the components have linking number 0 and any writhe;
    the +-1 surgery framings travel separately, and a framing f enters
    the surgery sum as the coefficient omega^(-f)_k of the component's
    P'_k colour.  diagram=None with no framings is the empty link (a
    presentation of the 3-sphere).

    Family form: family="borromean" with params (i, j, k) meaning
    surgery on the Borromean rings with framings -1/i, -1/j, -1/k;
    a zero parameter means no surgery on that component.
    """

    __slots__ = ("diagram", "framings", "family", "params")

    def __init__(self, diagram=None, framings=None, family=None, params=None):
        if family is not None:
            if family != "borromean":
                raise UnknownName(f"unknown surgery family {family!r}")
            params = tuple(int(p) for p in (params or ()))
            if len(params) != 3:
                raise UnknownName("borromean family needs three parameters")
            self.family = family
            self.params = params
            self.diagram = None
            self.framings = None
        else:
            self.family = None
            self.params = None
            self.diagram = diagram
            self.framings = tuple(framings) if framings is not None else ()

    @staticmethod
    def from_json(obj):
        """Presentation from a JSON object, {"family": "borromean",
        "params": [i, j, k]} or {"diagram": d, "framings": [...]} with d
        a builtin name, a diagram file or the diagram text.  The schema
        is checked first (InputError): an object with only the keys of
        its form, lists of integers (booleans rejected) and a string
        diagram; null is read as an absent key."""
        if not isinstance(obj, dict):
            raise InputError("a surgery presentation is a JSON object")
        obj = {k: v for k, v in obj.items() if v is not None}
        form = ("family", "params") if "family" in obj else \
            ("diagram", "framings")
        for key in obj:
            if key not in form:
                raise InputError(f'unexpected key "{key}" in a {form[0]} form')
        for key in ("params", "framings"):
            value = obj.get(key)
            if value is not None and (
                    not isinstance(value, list)
                    or any(type(v) is not int for v in value)):
                raise InputError(f'"{key}" must be a list of integers')
        if "family" in obj:
            return SurgeryPresentation(family=obj["family"],
                                       params=obj.get("params"))
        d = obj.get("diagram")
        if d is not None and not isinstance(d, str):
            raise InputError('"diagram" must be a string')
        if d in BUILTIN_NAMES:
            d = builtin(d)
        elif d is not None:
            d = parse_diagram(read_text(d) if os.path.exists(d) else d)
        return SurgeryPresentation(diagram=d, framings=obj.get("framings"))

    def __repr__(self):
        if self.family:
            return f"SurgeryPresentation({self.family}, {self.params})"
        tag = "empty" if self.diagram is None else repr(self.diagram)
        return f"SurgeryPresentation({tag}, framings={self.framings})"


def unlink_diagram(m):
    """A 0-framed m-component unlink drawn one component at a time."""
    slices = []
    for c in range(m):
        slices.append([("cup", c, False)])
        slices.append([("cap", c)])
    return Diagram(slices, name=f"unlink{m}")


def s3_presentations():
    """Four admissible presentations of the 3-sphere."""
    return [
        SurgeryPresentation(diagram=None, framings=()),
        SurgeryPresentation(diagram=builtin("unknot"), framings=(1,)),
        SurgeryPresentation(diagram=builtin("unknot"), framings=(-1,)),
        SurgeryPresentation(diagram=unlink_diagram(2), framings=(1, -1)),
    ]


def borromean_presentation(framings):
    return SurgeryPresentation(diagram=builtin("borromean"),
                               framings=tuple(framings))


def _check_admissible(d, framings):
    """One +-1 framing per component; the linking numbers are checked
    where the colour sums need them (tangles.check_split)."""
    if d is None:
        if framings:
            raise NotAdmissible("framings given for the empty link")
        return
    if len(framings) != d.component_count:
        raise NotAdmissible(
            f"{d.component_count} components but {len(framings)} framings")
    if any(f not in (1, -1) for f in framings):
        raise NotAdmissible("surgery framings must be +1 or -1")


def _diagram_form(pres):
    """(diagram, framings) for a presentation; family form is converted
    when every parameter is +-1 (framing -1/i = -i)."""
    if pres.family is None:
        return pres.diagram, pres.framings
    if any(p not in (1, -1) for p in pres.params):
        raise NotAdmissible(
            "only +-1 borromean parameters have a +-1-framed diagram form")
    return builtin("borromean"), tuple(-p for p in pres.params)


# -- the unified invariant ----------------------------------------------------


def jm_from_surgery(pres, N=DEFAULT_DEPTH):
    """J_M from an admissible surgery presentation, at depth N.

    The term for P'-colors (k_1, ..., k_m) is J of the 0-framed link
    times omega^(-f_i)_(k_i) for each framing f_i.  It is divisible by
    (q)_K with K = max(k_i); it is stored in slot K after that exact
    division, so truncating the k-ranges at N is sound.
    """
    if pres.family is not None:
        return jm_borromean(*pres.params, N)
    d, fr = pres.diagram, pres.framings
    _check_admissible(d, fr)
    out = [ZERO] * N
    if d is None:
        out[0] = ONE
        return HabiroElem(N, out)
    for ks, term in pprime_table(d, N).items():
        if term.is_zero():
            continue
        for k, f in zip(ks, fr):
            # P_k -> P'_k, then framing f contributes omega^(-f)_k
            term = term.exact_div(qfact_bal(k)) * omega_coeff(-f, k)
        K = max(ks)
        out[K] = out[K] + term.exact_div(pochhammer(K))
    return HabiroElem(N, out)


def _omega_products(params, N):
    """[prod_p omega^p_l for l < N], from one omega_row per distinct p; the
    largest |p| comes first, so its work bound refuses before any row."""
    rows = {p: omega_row(p, N) for p in sorted(dict.fromkeys(params),
                                               key=abs, reverse=True)}
    return [math.prod(rows[p][l] for p in params) for l in range(N)]


def jm_borromean(i, j, k, N=DEFAULT_DEPTH):
    """J of M_{i,j,k} by the closed formula, at depth N."""
    cs = _omega_products((i, j, k), N)
    return HabiroElem(N, [ZERO if c.is_zero() else c * _borromean_factor(l)
                          for l, c in enumerate(cs)])


@lru_cache(maxsize=None)
def _borromean_factor(l):
    """(-1)^l {2l+1}_{l+1} / ({1} (q)_l) = v^(1 - (l+1)(3l+2)/2)
    [2l+1 choose l+1]_q (1 + q + ... + q^l), with no division: one
    cyclotomic product of the binomial's Phi_d (as in qbinom_q) and the
    Phi_d, d > 1, dividing l + 1 (never the binomial's), its width proved by
    its coefficient sum C(2l+1, l+1) (l+1)."""
    i, n = 2 * l + 1, l + 1
    return v_pow(1 - n * (3 * l + 2) // 2) * cyclotomic_product(
        [d for d in range(2, i + 1) if i // d - n // d - l // d or n % d == 0],
        math.comb(i, n) * n)


def poincare_series(N=DEFAULT_DEPTH):
    """J of the Poincare homology sphere as the one-variable series
    sum_n q^n (1-q^(n+1))...(1-q^(2n+1))/(1-q) / (q)_n, whose coefficient
    q^n [2n+1 choose n]_q (1 + ... + q^n) is v^(3n(n+3)/2) times
    _borromean_factor(n)."""
    return HabiroElem(N, [v_pow(3 * n * (n + 3) // 2) * _borromean_factor(n)
                          for n in range(N)])


# -- the two-variable knot invariant ------------------------------------------
#
# Truncated at depth N, the invariant is the tuple of its first N
# coefficients in the sigma basis: coefficient n is the knot's value on
# P''_n = P_n / {2n+1}_{2n}, a Laurent polynomial.


def knot_borromean(i, j, N=DEFAULT_DEPTH):
    """The knot K_{i,j} (from the Borromean rings by -1/i and -1/j
    surgery on two components): coefficient l is (-1)^l w_{i,l} w_{j,l}."""
    return tuple(-c if l % 2 else c
                 for l, c in enumerate(_omega_products((i, j), N)))


def reduced_jones(d, N=DEFAULT_DEPTH):
    """Two-variable invariant of a knot diagram, framing-corrected to 0.
    Packed sums (tangles.pprime_table): DomainError near the digit bound."""
    if d.component_count != 1:
        raise NotAKnot(f"{d.component_count} components")
    table = pprime_table(d, N)
    return tuple(table[n,].exact_div(falling_bal(2 * n + 1, 2 * n))
                 for n in range(N))


def theta(x, i):
    """Specialization t -> q^i: the normalized (i-1)-colored Jones
    polynomial.  Symmetric in i -> -i; i must be nonzero."""
    if i == 0:
        raise ValueError("use theta0 for the i = 0 specialization")
    a = abs(i)
    if a > len(x):
        raise DepthExceeded(f"depth {len(x)} < |i| = {a}")
    acc = ZERO
    fac = ONE
    for k in range(a):
        if k:
            fac = fac * (q_pow(i) + q_pow(-i) - q_pow(k) - q_pow(-k))
        acc = acc + x[k] * fac
    return acc


def theta0(x):
    """The unified Kashaev invariant: t -> 1, with the k-th sigma value
    (-1)^k q^(-k(k+1)/2) (q)_k^2 contributing one (q)_k to slot k."""
    out = []
    for k, c in enumerate(x):
        c = c * pochhammer(k) * q_pow(-k * (k + 1) // 2)
        if k % 2:
            c = -c
        out.append(c)
    return HabiroElem(len(x), out)


# -- WRT invariants at roots of unity -----------------------------------------


@lru_cache(maxsize=None)
def _unknot_I(r, sign):
    """sum_c [c+1]^2 * (twist on V_c)^sign mod Phi_4r over Z, term by term:
    [c+1]^2 = sum_(|k|<=c) (c+1-|k|) q^k, twist u^(sign c(c+2)), u^(4r) = 1."""
    acc = [0] * (4 * r)
    for c in range(r - 1):
        for k in range(-c, c + 1):
            acc[(sign * c * (c + 2) + 4 * k) % (4 * r)] += c + 1 - abs(k)
    f = cyclotomic_coeffs(4 * r)
    return ModPoly(f, remainder(0, acc, f))


@lru_cache(maxsize=None)
def _unknot_inverse(r, f):
    """-U_(-f) {1}^2 mod Phi_4r, U_f = _unknot_I(r, f): by the Gauss-sum
    identity U_f (-U_(-f) {1}^2) = 2r (Kirby-Melvin), 2r times the
    inverse of U_f.  The product is checked: DomainError if it is not 2r."""
    mod4 = cyclotomic_coeffs(4 * r)
    inv = -_unknot_I(r, -f) * reduce_mod(qint_bal(1) ** 2, mod4, "u")
    if _unknot_I(r, f) * inv != 2 * r:
        raise DomainError(f"U_{f:+d} (-U_{-f:+d} {{1}}^2) is not {2 * r} "
                          f"mod Phi_{4 * r}")
    return inv


def wrt(pres, r):
    """The WRT invariant at a primitive r-th root of unity, an element of
    Z[q]/(Phi_r(q)); r = 1 gives 1.

    With x = q^(1/4), the colour sum T (tangles.colour_sum, colour c of
    a component of framing f and writhe w weighted by [c+1]
    theta_c^(f-w)) is reduced mod Phi_4r over Z and divided by the
    framed unknot values U_f, one per framing.  As U_f (-U_(-f) {1}^2)
    = 2r (_unknot_inverse), the value is T prod_f (-U_(-f) {1}^2)
    / (2r)^b, b the number of framings: one exact division of the
    coordinates in the integral basis 1, x, x^2, ... of Z[x]/(Phi_4r).
    The value is an algebraic integer, so a remainder raises
    NonExactDivision.  It lies in the subring Z[q]: for even r,
    Phi_4r(x) = Phi_r(x^4) and its q-coordinates y are every fourth
    x-coordinate; for odd r, Phi_4r(x) = Phi_r(w) with w = -x^2, the
    even coordinates give A(w) and, since q = w^2, y(q) = A(q^((r+1)/2)).
    Any other nonzero coordinate raises NotInQSubring.
    """
    require_positive("r", r)
    if r == 1:
        return 1
    d, fr = _diagram_form(pres)
    _check_admissible(d, fr)
    total = ONE if d is None else colour_sum(d, fr, r)
    value = reduce_mod(total, cyclotomic_coeffs(4 * r), "u")
    for f in fr:
        value = value * _unknot_inverse(r, f)
    scale = (2 * r) ** len(fr)
    if any(c % scale for c in value.coeffs):
        raise NonExactDivision(f"WRT value at r = {r} is not integral")
    step = 4 if r % 2 == 0 else 2
    if any(c for i, c in enumerate(value.coeffs) if i % step):
        raise NotInQSubring("value is not a polynomial in q = x^4")
    ys = [c // scale for i, c in enumerate(value.coeffs) if not i % step]
    if step == 2:
        # x^(2j) = (-w)^j and w = q^h, h = (r+1)/2, with q^r = 1 mod Phi_r
        h, a = (r + 1) // 2, [0] * r
        for j, c in enumerate(ys):
            a[j * h % r] += -c if j % 2 else c
        ys = a
    return ModPoly(cyclotomic_coeffs(r), ys)


# eval_root already lies in the ring wrt returns; the benchmark's wrt
# oracle calls it by this name.
eval_root_q = eval_root


# -- Ohtsuki series and congruences -------------------------------------------


def ohtsuki(x, d):
    """The first d coefficients of the Taylor expansion at q = 1,
    as plain integers (lambda_0 = 1, lambda_1, ...)."""
    return [c.as_integer() for c in taylor(x, 1, d)]


def _inverse_series(denom, n):
    """First n coefficients of 1/denom(h) as exact rationals."""
    out = [Fraction(1, denom[0])]
    for k in range(1, n):
        s = Fraction(0)
        for i in range(1, min(k, len(denom) - 1) + 1):
            s += denom[i] * out[k - i]
        out.append(-s / denom[0])
    return out


def _binom(n, k):
    """Binomial coefficient for any integer n (generalized, exact)."""
    num = 1
    for i in range(k):
        num *= n - i
    return num // math.factorial(k)


def congruence_report(lams):
    """Integrality and congruence relations satisfied by Ohtsuki
    coefficients of integral homology spheres.

    Takes the sequence lambda_0, lambda_1, ... (length >= 5) and reports
    pass/fail per relation without asserting anything.
    """
    lams = list(lams)
    if len(lams) < 5:
        raise ValueError("need at least 5 coefficients")
    l1, l2 = lams[1], lams[2]
    a = _inverse_series([6, 9, 5, 1], len(lams))
    b = _inverse_series([12, 30, 34, 21, 7, 1], len(lams))
    report = {"a": a[:4], "b": b[:4], "r68": [], "r70": []}
    for k in range(len(lams) - 1):
        s = sum((a[i] * lams[k - i + 1] for i in range(k + 1)), Fraction(0))
        report["r68"].append((k, s.denominator == 1))
    lp = {kk: lams[kk] - _binom(l1, kk) for kk in range(2, len(lams))}
    for k in range(len(lams) - 2):
        s = sum((b[i] * lp[k - i + 2] for i in range(k + 1)), Fraction(0))
        report["r70"].append((k, s.denominator == 1))
    report["lambda1_mod6"] = l1 % 6 == 0
    report["lambda2_half_lambda1_mod6"] = (l1 % 2 == 0
                                           and (l2 - l1 // 2) % 6 == 0)
    report["lambda2_3casson_mod12"] = (l1 % 6 == 0
                                       and (l2 - 3 * (l1 // 6)) % 12 == 0)
    report["all_pass"] = (all(ok for _, ok in report["r68"])
                          and all(ok for _, ok in report["r70"])
                          and report["lambda1_mod6"]
                          and report["lambda2_half_lambda1_mod6"]
                          and report["lambda2_3casson_mod12"])
    return report


def tilde_tau8_check(x, lam1):
    """Check the order-8 value against its known lattice constraint.

    Evaluates q^(-lambda_1) x at a primitive 8th root of unity, subtracts
    1 and reports whether the difference lies in the rank-4 lattice
    2(z-1)Z[z] (a theorem) and in the smaller span of 4 and 2*sqrt2
    (a conjecture; reported, never asserted).  In the basis 1, z, z^2,
    z^3, 2(z-1)(a + bz + cz^2 + dz^3) = 2(-a-d, a-b, b-c, c-d), so the
    lattice is the even vectors whose entries sum to 0 mod 4.  Below
    depth 8, eval_root raises DepthExceeded.
    """
    val = eval_root(x * q_pow(-lam1), 8)
    diff = [int(c) for c in val.coeffs]
    diff[0] -= 1
    in_lattice = all(c % 2 == 0 for c in diff) and sum(diff) % 4 == 0
    in_span = (diff[2] == 0 and diff[1] == -diff[3]
               and diff[1] % 2 == 0 and diff[0] % 4 == 0)
    return {"difference": diff,
            "in_lattice": in_lattice,
            "conjectured_span": in_span}
